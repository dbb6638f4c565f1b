package server

// The equivalence harness pinning the multi-query optimizer's one
// invariant: optimization changes the plan, never the bytes. Every
// answer a morphing cache or a shared family mine produces must be
// identical — on the patterns array — to what an independent fresh
// mine of the same request returns. The harness builds randomized
// query families (band, δ, constraint, and topk variations around a
// common σ and measure), serves them through a default server (morphing
// and family sharing engaged) and through a reference server with the
// cache disabled, queried with singles only, which mines every answer
// fresh, and byte-compares each answer, across client concurrency
// {1, 8} and index shards {1, 3}.
// Stats are NOT compared: a morphed or forked body reports zero search
// counters, which is the honest account of the work it did.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"skinnymine"
)

// equivGraph builds a random connected graph over the public API: a
// random spanning tree plus extra chords, labels drawn from a small
// alphabet so patterns repeat across graphs. The corpus keeps the
// label vocabulary shared, as a graph database requires.
func equivGraph(c *skinnymine.Corpus, rng *rand.Rand, n, extra, labels int) *skinnymine.Graph {
	g := c.NewGraph()
	ids := make([]skinnymine.VertexID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddVertex(fmt.Sprintf("l%d", rng.Intn(labels)))
		if i > 0 {
			if err := g.AddEdge(ids[rng.Intn(i)], ids[i]); err != nil {
				panic(err)
			}
		}
	}
	for e := 0; e < extra; e++ {
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if a != b {
			g.AddEdge(a, b) // duplicates and parallels just error; skip
		}
	}
	return g
}

// equivFamily is one randomized query family: a fixed weakest member
// plus structured variations. The fixed members guarantee the shapes
// the harness must exercise — a carrier-anchored family, a
// graph-measure family with a support>= conjunct, and a monotone
// outsider the planner must leave out — while the random tail varies
// band, δ, anti-monotone conjuncts, and topk.
func equivFamily(rng *rand.Rand) []string {
	bodies := []string{
		`{"length":4,"min_length":1,"delta":2}`, // weakest: the family carrier
		`{"length":4,"min_length":1,"delta":2,"where":"vertices<=8"}`,
		`{"length":4,"min_length":2,"delta":1,"where":"edges<=9"}`,
		`{"length":3,"min_length":1,"delta":2,"where":"vertices<=8 && topk(5, by=support)"}`,
		// Monotone conjunct: not provably contained in the family
		// superset, so it must run independently — and still match.
		`{"length":4,"min_length":1,"delta":2,"where":"contains(label='l0')"}`,
		// A second family under the graph-transaction measure, where a
		// support floor morphs as an anti-monotone conjunct.
		`{"length":3,"min_length":1,"delta":2,"measure":"graphs"}`,
		`{"length":3,"min_length":1,"delta":2,"measure":"graphs","where":"support>=3"}`,
	}
	wheres := []string{
		"", "vertices<=7", "edges<=8", "skinniness<=1",
		"vertices<=9 && edges<=10", "edges<=9 && topk(4, by=size)",
	}
	for i := 0; i < 3; i++ {
		mr := map[string]any{"length": 3 + rng.Intn(2), "delta": 1 + rng.Intn(2), "min_length": 1}
		if w := wheres[rng.Intn(len(wheres))]; w != "" {
			mr["where"] = w
		}
		b, _ := json.Marshal(mr)
		bodies = append(bodies, string(b))
	}
	return bodies
}

// patternsOf reduces a ResultJSON body to its patterns array — the
// part of the response the equivalence invariant is pinned on.
func patternsOf(t *testing.T, raw []byte) []byte {
	t.Helper()
	var res skinnymine.ResultJSON
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decoding result: %v\nbody: %s", err, raw)
	}
	out, err := json.Marshal(res.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mineBody posts one /v1/mine request and returns the raw body.
func mineBody(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	resp := postMine(t, ts, body)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for %s: %s", resp.StatusCode, body, raw)
	}
	return raw
}

// forEachConc runs fn(i) for i in [0,n) with the given client-side
// concurrency, the harness's stand-in for interleaved callers.
func forEachConc(t *testing.T, n, conc int, fn func(i int)) {
	t.Helper()
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func TestEquivalenceRandomFamilies(t *testing.T) {
	shardCounts := []int{1, 3}
	concs := []int{1, 8}
	if testing.Short() {
		shardCounts, concs = []int{1}, []int{8}
	}
	for _, shards := range shardCounts {
		for _, conc := range concs {
			shards, conc := shards, conc
			t.Run(fmt.Sprintf("shards=%d/conc=%d", shards, conc), func(t *testing.T) {
				runEquivRound(t, shards, conc, int64(3000+100*shards+conc))
			})
		}
	}
}

func runEquivRound(t *testing.T, shards, conc int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	corpus := skinnymine.NewCorpus()
	graphs := []*skinnymine.Graph{
		equivGraph(corpus, rng, 20, 6, 3),
		equivGraph(corpus, rng, 17, 5, 3),
		equivGraph(corpus, rng, 14, 4, 3),
	}
	var ix *skinnymine.Index
	var err error
	if shards > 1 {
		ix, err = skinnymine.BuildShardedIndex(graphs, 2, shards)
	} else {
		ix, err = skinnymine.BuildIndex(graphs, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Reference: no cache, queried with singles only, so every answer
	// is an independent fresh mine — with nothing cached there is no
	// morph source, and families are planned only inside a batch. The
	// two servers share one index — its level cache memoizes work, never
	// results.
	_, refTS := newTestServer(t, Config{Index: ix, CacheSize: -1})
	optS, optTS := newTestServer(t, Config{Index: ix})

	bodies := equivFamily(rng)

	// Ground truth, one fresh mine per distinct body.
	var mu sync.Mutex
	truth := make(map[string][]byte)
	fresh := func(body string) []byte {
		mu.Lock()
		got, ok := truth[body]
		mu.Unlock()
		if ok {
			return got
		}
		got = patternsOf(t, mineBody(t, refTS, body))
		mu.Lock()
		truth[body] = got
		mu.Unlock()
		return got
	}
	want := make([][]byte, len(bodies))
	forEachConc(t, len(bodies), conc, func(i int) {
		want[i] = fresh(bodies[i])
	})

	// Optimized phase 1: the whole family in one batch — this is where
	// shared-plan execution forks members from one family mine.
	var breq BatchRequest
	for _, b := range bodies {
		breq.Requests = append(breq.Requests, json.RawMessage(b))
	}
	payload, _ := json.Marshal(breq)
	resp := postBatch(t, optTS, string(payload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	br := decodeBody[BatchResponse](t, resp.Body)
	for i := range bodies {
		if br.Results[i].Status != http.StatusOK {
			t.Fatalf("batch entry %d: status %d: %s", i, br.Results[i].Status, br.Results[i].Error)
		}
		if got := patternsOf(t, br.Results[i].Result); !bytes.Equal(got, want[i]) {
			t.Errorf("batch entry %d (%s, source %s): patterns diverge from fresh mine\ngot:  %s\nwant: %s",
				i, bodies[i], br.Results[i].Source, got, want[i])
		}
	}

	// Optimized phase 2: singles against the warm server — replays of
	// phase 1 (hits) interleaved with fresh subsumable keys (morphs),
	// each checked against its own fresh reference mine.
	morphers := []string{
		`{"length":4,"min_length":1,"delta":2,"where":"vertices<=7"}`,
		`{"length":4,"min_length":1,"delta":1,"where":"vertices<=8"}`,
		`{"length":3,"min_length":1,"delta":2,"where":"vertices<=8 && topk(3, by=support)"}`,
		`{"length":3,"min_length":1,"delta":2,"measure":"graphs","where":"support>=3 && edges<=9"}`,
	}
	singles := append(append([]string(nil), bodies...), morphers...)
	rng.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
	wantSingle := make([][]byte, len(singles))
	forEachConc(t, len(singles), conc, func(i int) {
		wantSingle[i] = fresh(singles[i])
	})
	forEachConc(t, len(singles), conc, func(i int) {
		if got := patternsOf(t, mineBody(t, optTS, singles[i])); !bytes.Equal(got, wantSingle[i]) {
			t.Errorf("single %s: patterns diverge from fresh mine\ngot:  %s\nwant: %s", singles[i], got, wantSingle[i])
		}
	})

	// The optimizer must actually have engaged — a harness that never
	// morphs or forks pins nothing — and the serving ledger must still
	// account for every tracked request exactly once. Duplicate bodies
	// inside the batch collapse to one unit, hence br.Unique.
	m := optS.metrics.snapshot()
	if m.Mine.FamilyShared < 1 {
		t.Errorf("family_shared = %d, want >= 1 (the batch held a mixable family)", m.Mine.FamilyShared)
	}
	if m.Mine.Morphed < 1 {
		t.Errorf("morphed = %d, want >= 1 (phase 2 posted subsumable fresh keys)", m.Mine.Morphed)
	}
	tracked := m.Mine.CacheHits + m.Mine.CacheMisses + m.Mine.Coalesced + m.Mine.Morphed + m.Mine.FamilyShared
	if want := int64(br.Unique + len(singles)); tracked != want {
		t.Errorf("ledger: hits+misses+coalesced+morphed+family_shared = %d, want %d", tracked, want)
	}
}
