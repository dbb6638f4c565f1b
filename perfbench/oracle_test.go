package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"skinnymine"
	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// smallResult mines two copies of the path A-B-C: patterns A-B, B-C
// and A-B-C, each with support 2.
func smallResult(t *testing.T) *skinnymine.Result {
	t.Helper()
	g := skinnymine.NewGraph()
	for i := 0; i < 2; i++ {
		a, b, c := g.AddVertex("A"), g.AddVertex("B"), g.AddVertex("C")
		if err := g.AddEdge(a, b); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(b, c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := skinnymine.Mine(g, skinnymine.Options{Support: 2, Length: 2, MinLength: 1, Delta: 1, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) < 2 {
		t.Fatalf("want at least 2 patterns, got %d", len(res.Patterns))
	}
	return res
}

// body serializes doc the way the daemon does.
func body(t *testing.T, doc skinnymine.ResultJSON) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOracleCatchesCorruption is the oracle's self-test: a dropped
// pattern or a support off by one is reported, a body whose stats alone
// differ passes.
func TestOracleCatchesCorruption(t *testing.T) {
	res := smallResult(t)
	want, err := resultPatterns(res)
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if err := res.WriteJSON(&served); err != nil {
		t.Fatal(err)
	}
	if err := checkBody(served.Bytes(), want); err != nil {
		t.Fatalf("an intact body failed: %v", err)
	}

	dropped := res.ToJSON()
	dropped.Patterns = dropped.Patterns[1:]
	if err := checkBody(body(t, dropped), want); err == nil {
		t.Error("a dropped pattern passed")
	}

	offByOne := res.ToJSON()
	offByOne.Patterns[len(offByOne.Patterns)-1].Support++
	if err := checkBody(body(t, offByOne), want); err == nil {
		t.Error("a support off by one passed")
	}

	stats := res.ToJSON()
	stats.Stats = skinnymine.StatsJSON{LevelGrowMillis: 123.4, ExtensionsTried: 99}
	if err := checkBody(body(t, stats), want); err != nil {
		t.Errorf("a body differing only in stats failed: %v", err)
	}

	short := &skinnymine.Result{Patterns: res.Patterns[1:], Stats: res.Stats}
	if err := checkLibrary(short, want); err == nil {
		t.Error("a library result missing a pattern passed")
	}
	bad := &skinnymine.Result{Patterns: res.Patterns, Stats: res.Stats}
	bad.Stats.OutputInvalid = 1
	if err := checkLibrary(bad, want); err == nil {
		t.Error("a library result with an invalid output passed")
	}
}

// TestOracleNullEqualsEmpty: the daemon may encode an empty result as
// null or as [].
func TestOracleNullEqualsEmpty(t *testing.T) {
	want, err := resultPatterns(&skinnymine.Result{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{`{"patterns":null,"stats":{}}`, `{"patterns":[],"stats":{}}`, `{"stats":{}}`} {
		if err := checkBody([]byte(b), want); err != nil {
			t.Errorf("%s: %v", b, err)
		}
	}
	if err := checkBody([]byte(`{"patterns":[{"support":1}]}`), want); err == nil {
		t.Error("a pattern where none belong passed")
	}
}

// TestPresentationKeepsPatterns: different seeds present different
// bytes of one structure, and the mined pattern set is the same.
func TestPresentationKeepsPatterns(t *testing.T) {
	gs := []*graph.Graph{testutil.SynthWorkload(3, 40), testutil.SynthWorkload(5, 30)}
	opt := skinnymine.Options{Support: 2, Length: 3, Delta: 1, Concurrency: 1}
	var first, firstText []byte
	for seed := int64(1); seed <= 3; seed++ {
		text := present(rand.New(rand.NewSource(seed)), gs)
		db, err := skinnymine.ReadGraphs(bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		res, err := skinnymine.MineDB(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resultPatterns(res)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			first, firstText = got, text
			if len(res.Patterns) == 0 {
				t.Fatal("no patterns; the test input is too small")
			}
			continue
		}
		if bytes.Equal(text, firstText) {
			t.Errorf("seed %d presented the same bytes as seed 1", seed)
		}
		if !bytes.Equal(got, first) {
			t.Errorf("seed %d mined a different pattern set", seed)
		}
	}
}
