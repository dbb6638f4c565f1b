package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// BatchRequest is the wire form of POST /v1/batch: up to Config.MaxBatch
// mining requests answered in one round trip. Entries stay raw at the
// envelope level and decode individually, so a malformed entry — an
// unknown field, a wrong-typed value — fails THAT entry inline instead
// of 400ing the whole batch.
type BatchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// BatchItem is one request's outcome within a batch. Status is the HTTP
// status the same request would have received from /v1/mine; exactly
// one of Error and Result is set. Source reports how the body was
// obtained: "hit" (LRU cache), "miss" (mined by this batch),
// "coalesced" (shared an in-flight run outside the batch), "morphed"
// (post-filtered from a cached superset result), "family_shared"
// (forked from a shared mine of this batch's query family), or
// "duplicate" (same canonical request appeared earlier in the batch).
type BatchItem struct {
	Status int             `json:"status"`
	Source string          `json:"source,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// BatchResponse is the /v1/batch payload: per-request results in
// request order, plus the batch accounting the examples and smoke tests
// assert on — Unique counts distinct canonical requests, CacheHits the
// unique requests answered from the LRU cache without mining.
type BatchResponse struct {
	Items     int         `json:"items"`
	Unique    int         `json:"unique"`
	CacheHits int         `json:"cache_hits"`
	Results   []BatchItem `json:"results"`
}

// handleBatch answers N mining requests in one scheduling pass:
// every entry is canonicalized and validated exactly like /v1/mine,
// entries sharing a canonical cache key collapse to one unit of work,
// and the unique cache misses enter the shared admission gate
// concurrently — a batch of N duplicates performs exactly one mining
// run, and a batch never starves interactive /v1/mine traffic for more
// than its unique-miss count of admission slots. Per-entry validation
// failures report inline (the batch itself still succeeds), so one bad
// request cannot void its neighbors.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.batch.Add(1)
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if len(req.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch contains no requests")
		return
	}
	if len(req.Requests) > s.maxBatch {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds this server's limit of %d", len(req.Requests), s.maxBatch))
		return
	}
	s.metrics.batch.items.Add(int64(len(req.Requests)))

	// Phase 1: canonicalize and deduplicate. toOptions lowers each
	// entry into its canonical form (defaults resolved, constraint
	// canonicalized), so spelling variants of one request share a
	// requestKey — the same key single /v1/mine requests cache under.
	type slot struct {
		key string
		err error
	}
	slots := make([]slot, len(req.Requests))
	units := make(map[string]*unit, len(req.Requests))
	var order []string
	invalid := 0
	for i := range req.Requests {
		var mr MineRequest
		dec := json.NewDecoder(bytes.NewReader(req.Requests[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&mr); err != nil {
			slots[i].err = fmt.Errorf("invalid request body: %w", err)
			invalid++
			continue
		}
		opt, err := s.toOptions(mr)
		if err != nil {
			slots[i].err = err
			invalid++
			continue
		}
		key := requestKey(opt)
		slots[i].key = key
		if _, ok := units[key]; !ok {
			units[key] = &unit{key: key, first: i, opt: opt}
			order = append(order, key)
		}
	}
	s.metrics.batch.unique.Add(int64(len(order)))
	s.metrics.batch.deduped.Add(int64(len(req.Requests) - len(order) - invalid))

	// Phase 2: plan, then one scheduling pass. Units forming a query
	// family (planFamilies) share a single mine of the family superset
	// and fork from it; everything else runs the shared guard stack
	// independently. Cache hits return immediately, misses queue at the
	// admission gate together.
	plans, owned := planFamilies(units, order)
	var wg sync.WaitGroup
	for _, fp := range plans {
		wg.Add(1)
		go func(fp *familyPlan) {
			defer wg.Done()
			s.runFamily(r, fp)
		}(fp)
	}
	for _, key := range order {
		if owned[key] {
			continue
		}
		wg.Add(1)
		go func(u *unit) {
			defer wg.Done()
			s.runUnit(r, u)
		}(units[key])
	}
	wg.Wait()

	// Phase 3: assemble per-entry outcomes in request order.
	resp := BatchResponse{
		Items:   len(req.Requests),
		Unique:  len(order),
		Results: make([]BatchItem, len(req.Requests)),
	}
	for _, key := range order {
		if u := units[key]; u.err == nil && u.source == "hit" {
			resp.CacheHits++
		}
	}
	for i := range req.Requests {
		if slots[i].err != nil {
			resp.Results[i] = BatchItem{Status: http.StatusBadRequest, Error: slots[i].err.Error()}
			continue
		}
		u := units[slots[i].key]
		if u.err != nil {
			resp.Results[i] = BatchItem{Status: errStatus(u.err), Error: u.err.Error()}
			continue
		}
		// Per-ENTRY latency: every answered entry — duplicates included —
		// observes its unit's serve time, so the batch histogram reflects
		// what callers of each entry experienced.
		s.metrics.batch.latency.Observe(u.dur)
		source := u.source
		if i != u.first {
			source = "duplicate"
		}
		resp.Results[i] = BatchItem{Status: http.StatusOK, Source: source, Result: u.p.body}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
