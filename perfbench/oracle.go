package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"skinnymine"
)

// The output oracle. Results are compared by their pattern lists only:
// stats carry wall-clock times and are zero on morphed bodies, so they
// never take part. Both sides go through the same decode and encode, so
// a null list and an empty one compare equal.

// canonPatterns re-encodes a JSON pattern list in one canonical form.
func canonPatterns(raw json.RawMessage) ([]byte, error) {
	var ps []skinnymine.PatternJSON
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &ps); err != nil {
			return nil, fmt.Errorf("decode patterns: %w", err)
		}
	}
	if ps == nil {
		ps = []skinnymine.PatternJSON{}
	}
	return json.Marshal(ps)
}

// resultPatterns is the canonical pattern list of a library result.
func resultPatterns(res *skinnymine.Result) ([]byte, error) {
	raw, err := json.Marshal(res.ToJSON().Patterns)
	if err != nil {
		return nil, err
	}
	return canonPatterns(raw)
}

// bodyPatterns is the canonical pattern list of a serialized ResultJSON
// (a /v1/mine body or a batch entry's result).
func bodyPatterns(body []byte) ([]byte, error) {
	var doc struct {
		Patterns json.RawMessage `json:"patterns"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return canonPatterns(doc.Patterns)
}

// checkLibrary verifies one library result against the oracle's
// canonical pattern list, and that the miner's own self-checks found
// nothing.
func checkLibrary(res *skinnymine.Result, want []byte) error {
	if res.Stats.CheckMismatches != 0 || res.Stats.OutputInvalid != 0 {
		return fmt.Errorf("self-check failed: %d check mismatches, %d invalid outputs",
			res.Stats.CheckMismatches, res.Stats.OutputInvalid)
	}
	got, err := resultPatterns(res)
	if err != nil {
		return err
	}
	return samePatterns(got, want)
}

// checkBody verifies a serialized result against the oracle's
// canonical pattern list.
func checkBody(body, want []byte) error {
	got, err := bodyPatterns(body)
	if err != nil {
		return err
	}
	return samePatterns(got, want)
}

func samePatterns(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	var g, w []skinnymine.PatternJSON
	_ = json.Unmarshal(got, &g) // both are canonical encodings
	_ = json.Unmarshal(want, &w)
	if len(g) != len(w) {
		return fmt.Errorf("pattern mismatch: %d patterns, oracle has %d", len(g), len(w))
	}
	for i := range g {
		a, _ := json.Marshal(g[i])
		b, _ := json.Marshal(w[i])
		if !bytes.Equal(a, b) {
			return fmt.Errorf("pattern mismatch at %d: got %s, oracle %s", i, a, b)
		}
	}
	return fmt.Errorf("pattern mismatch")
}
