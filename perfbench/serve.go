package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skinnymine"
	"skinnymine/internal/server"
)

// The serve-mix workload: an in-process daemon (server.New, default
// configuration apart from a discarding logger) serving an unsharded
// index loaded from a snapshot file, driven over loopback by a closed
// loop of one client per CPU. Closed, because analysts and dashboards
// wait for each reply before asking the next question.
const (
	serveSigma     = 3
	serveSetupReps = 8    // before the warm-up, and again after the window
	batchShare     = 0.05 // share of operations that are /v1/batch families
	traceEvery     = 16   // traced run: every 16th /v1/mine carries ?trace=1
	warmupShare    = 0.2  // untimed warm-up before the window, as a share of --seconds
	streamLen      = 1 << 17
)

// Query space. Every request forbids the dominant background label,
// which keeps single misses in the tens of milliseconds on the Skew
// graph. A family is one loose request (diameter length L, skinniness
// δ and one of familyBases) and its tightenings, which the loose result
// subsumes: a tightening that misses the LRU is morphed when its loose
// request, or another superset, is still cached. Families of different
// lengths never subsume one another, and tail families are requested
// rarely enough that their loose results get evicted, so misses keep
// coming after the warm-up.
var (
	familyLengths = []int{2, 3, 4, 5, 6}
	familyDeltas  = []int{1, 2}
	familyBases   = []string{
		"!contains(label='0') && vertices<=8",
		"!contains(label='0') && vertices<=7",
		"!contains(label='0') && edges<=8",
		"!contains(label='0') && !contains(label='3')",
	}
	extraWhere = []string{"", "!contains(label='1')", "!contains(label='2')", "vertices<=6"}
	topkWhere  = []string{"", "topk(10, by=support)", "topk(5, by=size)"}
)

type query struct {
	body []byte // the /v1/mine request body, also the query's key
	opt  skinnymine.Options
}

// family lists its members with the loose request first; within a
// family, member popularity falls with the index.
type family []query

// queryFamilies builds the fixed query space: 40 families of 24
// members, 960 distinct requests, against the daemon's 256-entry result
// cache. The recipes fix the popularity order.
func queryFamilies(r recipes) []family {
	order := rand.New(rand.NewSource(r.popularity))
	var fams []family
	for _, base := range familyBases {
		for _, l := range familyLengths {
			for _, d := range familyDeltas {
				var f family
				for _, dd := range []int{d, d - 1} {
					for _, extra := range extraWhere {
						for _, topk := range topkWhere {
							where := base
							for _, c := range []string{extra, topk} {
								if c != "" {
									where += " && " + c
								}
							}
							f = append(f, newQuery(l, dd, where))
						}
					}
				}
				rest := f[1:]
				order.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
				fams = append(fams, f)
			}
		}
	}
	order.Shuffle(len(fams), func(i, j int) { fams[i], fams[j] = fams[j], fams[i] })
	return fams
}

func newQuery(l, d int, where string) query {
	req := server.MineRequest{Length: l, Delta: d, Where: where}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a MineRequest always encodes
	}
	return query{body: body, opt: skinnymine.Options{
		Support: serveSigma, Length: l, Delta: d, Where: where}}
}

// serveOp is one client operation: a single /v1/mine request, or a
// /v1/batch of several members of one family.
type serveOp struct {
	queries []query
	batch   bool
}

// Popularity: family f has weight 1/(1+f)^familyZipf in the (fixed,
// shuffled) family order, member m of a family 1/(2+m)^memberZipf.
const (
	familyZipf       = 1.1
	memberZipf       = 1.3
	batchesPerFamily = 2
)

// opStream builds the operation sequence. Every operation kind — one
// request, or one of the fixed batches of each family — recurs at a
// fixed rate given by its popularity, starting at a phase drawn from
// the seed. So every run sends each request about equally often and
// only the interleaving differs: drawing each operation independently
// instead let the handful of expensive misses in a window, and with
// them every figure, swing by 20% from seed to seed.
func opStream(seed int64, fams []family, r recipes) []serveOp {
	type kind struct {
		op   serveOp
		rate float64 // arrivals per operation
	}
	famW := zipfWeights(len(fams), 1, familyZipf)
	memW := zipfWeights(len(fams[0]), 2, memberZipf)
	compose := rand.New(rand.NewSource(r.batches))
	var kinds []kind
	for f, fam := range fams {
		for m, q := range fam {
			kinds = append(kinds, kind{serveOp{queries: []query{q}}, (1 - batchShare) * famW[f] * memW[m]})
		}
		// Batch members are drawn with replacement, so some batches
		// carry duplicates for the daemon to collapse.
		for b := 0; b < batchesPerFamily; b++ {
			qs := make([]query, 4+compose.Intn(3))
			for j := range qs {
				qs[j] = fam[pick(compose, memW)]
			}
			kinds = append(kinds, kind{serveOp{queries: qs, batch: true}, batchShare * famW[f] / batchesPerFamily})
		}
	}
	phase := rand.New(rand.NewSource(seed))
	type arrival struct {
		t  float64
		op int
	}
	var arr []arrival
	for i, k := range kinds {
		for t := phase.Float64() / k.rate; t < streamLen; t += 1 / k.rate {
			arr = append(arr, arrival{t, i})
		}
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i].t < arr[j].t })
	ops := make([]serveOp, len(arr))
	for i, a := range arr {
		ops[i] = kinds[a.op].op
	}
	return ops
}

// zipfWeights are the normalized weights 1/(v+i)^s of ranks 0..n-1.
func zipfWeights(n int, v, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = math.Pow(v+float64(i), -s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// pick draws an index with probability proportional to its weight.
func pick(rng *rand.Rand, w []float64) int {
	x := rng.Float64()
	for i, p := range w {
		if x < p {
			return i
		}
		x -= p
	}
	return len(w) - 1
}

// daemon is one running in-process server on a loopback listener.
type daemon struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// startDaemon is the serve-mix set-up: load the snapshot, build the
// server, listen, materialize the path levels the mix uses through
// /v1/backbones, and wait for /healthz. It returns the load time too.
func startDaemon(snapshot string, client *http.Client) (*daemon, time.Duration, error) {
	t0 := time.Now()
	ix, err := skinnymine.LoadIndexFile(snapshot)
	if err != nil {
		return nil, 0, fmt.Errorf("load index: %w", err)
	}
	load := time.Since(t0)
	s, err := server.New(server.Config{Index: ix, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{srv: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	for l := 1; l <= familyLengths[len(familyLengths)-1]; l++ {
		if _, err := get(client, fmt.Sprintf("%s/v1/backbones?l=%d", d.url, l)); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	if _, err := get(client, d.url+"/healthz"); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, load, nil
}

// stop closes the server and waits for its serving goroutine to end.
func (d *daemon) stop() {
	_ = d.srv.Close() // closing the listener is all that can fail; nothing to do about it
	<-d.done
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

func post(client *http.Client, url string, body []byte) ([]byte, http.Header, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, out)
	}
	return out, resp.Header, nil
}

// bodyRef names one distinct response body of one request.
type bodyRef struct {
	key  string
	hash uint64
}

// served collects what the clients saw: the ledger tallies by result
// source, latencies, and every distinct body per request. Each response
// is checked through its body's hash; the distinct bodies are spilled
// to a file in the work directory, so the client side adds little to
// the process's resident set while the window runs.
type served struct {
	mu       sync.Mutex
	seed     maphash.Seed
	spill    *os.File
	end      int64
	bodies   map[bodyRef][2]int64 // offset and length in spill
	uses     map[bodyRef]int      // responses that carried the body
	missRefs map[bodyRef]int      // of which answered by a fresh mine inside the window
	sources  map[string]int64
	mineMs   []float64            // untraced /v1/mine latencies
	lat      map[string][]float64 // the same, by result source
	traced   []float64            // latencies of the sampled ?trace=1 requests
	batchMs  []float64
	respKB   []float64
	requests int
	failed   int
}

func newServed(spill *os.File) *served {
	return &served{seed: maphash.MakeSeed(), spill: spill, bodies: make(map[bodyRef][2]int64),
		uses: make(map[bodyRef]int), missRefs: make(map[bodyRef]int),
		sources: make(map[string]int64), lat: make(map[string][]float64)}
}

// record files one answered request body under its result source;
// timed marks a response inside the measured window. The caller holds
// s.mu.
func (s *served) record(key []byte, source string, body []byte, timed bool) {
	ref := bodyRef{key: string(key), hash: maphash.Bytes(s.seed, body)}
	if _, ok := s.bodies[ref]; !ok {
		if _, err := s.spill.Write(body); err != nil {
			s.failed++
			fmt.Fprintln(os.Stderr, "perfbench: failed: spill body:", err)
			return
		}
		s.bodies[ref] = [2]int64{s.end, int64(len(body))}
		s.end += int64(len(body))
	}
	s.uses[ref]++
	if source == "miss" && timed {
		s.missRefs[ref]++
	}
	s.sources[source]++
}

// body reads a spilled body back.
func (s *served) body(ref bodyRef) ([]byte, error) {
	at := s.bodies[ref]
	b := make([]byte, at[1])
	if _, err := s.spill.ReadAt(b, at[0]); err != nil {
		return nil, fmt.Errorf("read spilled body: %w", err)
	}
	return b, nil
}

func (s *served) fail(err error) {
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
}

// do sends one operation and files its outcome; timed reports whether
// its latency belongs to the measured window.
func (s *served) do(client *http.Client, base string, op serveOp, traced, timed bool, rec *recorder, opID int) {
	t0 := time.Now()
	if op.batch {
		s.doBatch(client, base, op, t0, timed)
		return
	}
	q := op.queries[0]
	url := base + "/v1/mine"
	if traced {
		url += "?trace=1"
	}
	body, hdr, err := post(client, url, q.body)
	t1 := time.Now()
	if err != nil {
		s.fail(err)
		return
	}
	source := hdr.Get("X-Result-Source")
	result := body
	if traced {
		var tr server.TraceResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			s.fail(fmt.Errorf("decode traced response: %w", err))
			return
		}
		result = tr.Result
		id := rec.add(opID, 0, "server.request", t0, t1)
		if tr.Source == "mined" { // otherwise the spans are of an earlier request's run
			rec.addProgramSpans(opID, id, t0, tr.Spans)
		}
	}
	ms := t1.Sub(t0).Seconds() * 1000
	s.mu.Lock()
	defer s.mu.Unlock()
	s.record(q.body, source, result, timed)
	if !timed {
		return
	}
	s.requests++
	s.respKB = append(s.respKB, float64(len(result))/1024)
	if traced {
		s.traced = append(s.traced, ms)
		return
	}
	s.mineMs = append(s.mineMs, ms)
	s.lat[source] = append(s.lat[source], ms)
}

func (s *served) doBatch(client *http.Client, base string, op serveOp, t0 time.Time, timed bool) {
	reqs := make([]json.RawMessage, len(op.queries))
	for i, q := range op.queries {
		reqs[i] = q.body
	}
	payload, err := json.Marshal(server.BatchRequest{Requests: reqs})
	if err != nil {
		s.fail(err)
		return
	}
	body, _, err := post(client, base+"/v1/batch", payload)
	ms := time.Since(t0).Seconds() * 1000
	if err != nil {
		s.fail(err)
		return
	}
	var br server.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		s.fail(fmt.Errorf("decode batch: %w", err))
		return
	}
	if len(br.Results) != len(op.queries) {
		s.fail(fmt.Errorf("batch: %d results for %d requests", len(br.Results), len(op.queries)))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, item := range br.Results {
		if item.Status != http.StatusOK {
			s.failed++
			fmt.Fprintf(os.Stderr, "perfbench: failed: batch entry %d: status %d: %s\n", i, item.Status, item.Error)
			continue
		}
		s.record(op.queries[i].body, item.Source, item.Result, timed)
	}
	if timed {
		s.requests++
		s.batchMs = append(s.batchMs, ms)
	}
}

// runServe runs the serve-mix workload.
func runServe(seed int64, seconds float64, traced bool, work string, rec *recorder) (*outcome, error) {
	out := newOutcome()
	rc := recipesFor(seed)
	text := present(rand.New(rand.NewSource(seed)), skewGraphs(rc))
	db, err := skinnymine.ReadGraphs(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("read graphs: %w", err)
	}
	ix, err := skinnymine.BuildIndex(db, serveSigma)
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	snapshot := filepath.Join(work, "serve-mix.idx")
	if err := ix.WriteSnapshotFile(snapshot); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	defer os.Remove(snapshot)
	fi, err := os.Stat(snapshot)
	if err != nil {
		return nil, err
	}
	fams := queryFamilies(rc)
	ops := opStream(seed, fams, rc)

	nclients := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nclients, MaxConnsPerHost: nclients, DisableCompression: true}}
	defer client.CloseIdleConnections()

	// Set-ups repeat before the warm-up and again after the window, each
	// daemon but the serving one stopped right away; setup_s is the
	// median of all of them.
	var setups, loads []float64
	setUp := func() (*daemon, error) {
		runtime.GC() // start every repetition from the same heap
		t0 := time.Now()
		d, load, err := startDaemon(snapshot, client)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, load.Seconds())
		return d, nil
	}
	setUpMore := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := setUp()
			if err != nil {
				return err
			}
			d.stop()
			client.CloseIdleConnections()
		}
		return nil
	}
	if err := setUpMore(serveSetupReps - 1); err != nil {
		return nil, err
	}
	d, err := setUp()
	if err != nil {
		return nil, err
	}
	defer d.stop()

	metricsNow := func() (counters, error) {
		body, err := get(client, d.url+"/metrics")
		if err != nil {
			return counters{}, err
		}
		return parseCounters(body)
	}
	c0, err := metricsNow()
	if err != nil {
		return nil, err
	}
	spill, err := os.CreateTemp(work, "serve-mix-bodies-*")
	if err != nil {
		return nil, err
	}
	defer os.Remove(spill.Name())
	defer spill.Close()
	sv := newServed(spill)
	var next atomic.Int64
	drive := func(until time.Time, timed bool) {
		var wg sync.WaitGroup
		for c := 0; c < nclients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(until) {
					i := next.Add(1) - 1
					op := ops[i%int64(len(ops))]
					sv.do(client, d.url, op, traced && timed && i%traceEvery == 0, timed, rec, int(i)+1)
				}
			}()
		}
		wg.Wait()
	}
	drive(time.Now().Add(time.Duration(warmupShare*seconds*float64(time.Second))), false)
	c1, err := metricsNow()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	before := sampleRuntime()
	w0 := time.Now()
	drive(w0.Add(time.Duration(seconds*float64(time.Second))), true)
	window := time.Since(w0).Seconds()
	var rt runtimeDelta
	rt.add(before, sampleRuntime())
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	c2, err := metricsNow()
	if err != nil {
		return nil, err
	}
	d.stop()
	client.CloseIdleConnections()
	if err := setUpMore(serveSetupReps); err != nil {
		return nil, err
	}
	out.set("setup_s", median(setups))

	out.failed += sv.failed
	if err := checkLedger(sv.sources, c2.sub(c0)); err != nil {
		out.fail(err)
	}
	attempted := 0
	for _, n := range sv.uses {
		attempted += n
	}
	out.attempted = attempted + sv.failed
	if out.attempted == 0 {
		return out, nil
	}

	// The oracle: every distinct body against library Index.Mine on a
	// private index built from the same graph text.
	i0 := time.Now()
	oracleIx, err := skinnymine.BuildIndex(db, serveSigma)
	if err != nil {
		return nil, fmt.Errorf("oracle index: %w", err)
	}
	b0 := time.Now()
	buildS := b0.Sub(i0).Seconds()
	if _, err := oracleIx.MinimalBackbones(familyLengths[len(familyLengths)-1]); err != nil {
		return nil, fmt.Errorf("oracle backbones: %w", err)
	}
	backbonesS := time.Since(b0).Seconds()
	optByKey := make(map[string]skinnymine.Options)
	for _, f := range fams {
		for _, q := range f {
			optByKey[string(q.body)] = q.opt
		}
	}
	byKey := make(map[string][]bodyRef)
	for ref := range sv.bodies {
		byKey[ref.key] = append(byKey[ref.key], ref)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var mineS, encS, encMB []float64
	for _, k := range keys {
		t0 := time.Now()
		res, err := oracleIx.Mine(optByKey[k])
		mineS = append(mineS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("oracle mine %s: %w", k, err)
		}
		want, err := resultPatterns(res)
		if err != nil {
			return nil, err
		}
		if traced {
			e0 := time.Now()
			enc, err := json.Marshal(res.ToJSON())
			if err != nil {
				return nil, err
			}
			encS = append(encS, time.Since(e0).Seconds())
			encMB = append(encMB, float64(len(enc))/(1<<20))
		}
		for _, ref := range byKey[k] {
			body, err := sv.body(ref)
			if err != nil {
				return nil, err
			}
			if err := checkBody(body, want); err != nil {
				out.failed += sv.uses[ref]
				fmt.Fprintf(os.Stderr, "perfbench: failed: %d responses to %s: %v\n", sv.uses[ref], k, err)
			}
		}
	}

	w := c2.sub(c1)
	ops64 := float64(sv.requests)
	out.set("ops_per_s", ops64/window)
	out.set("op_ms.p50", median(sv.mineMs))
	out.set("alloc_mb_per_op", rt.allocBytes/ops64/(1<<20))
	out.set("allocs_per_op", rt.mallocs/ops64)
	out.set("peak_rss_mb", rss)
	out.set("gc.cycles_per_op", rt.gcCycles/ops64)
	out.set("gc.cpu_frac", ratio(rt.gcCPU, rt.totalCPU))
	out.set("mine_req_ms.p99", percentile(sv.mineMs, 0.99))
	out.set("batch_req_ms.p50", median(sv.batchMs))
	out.set("batch_req_ms.p90", percentile(sv.batchMs, 0.9))
	out.set("server.hit_ms.p50", median(sv.lat["hit"]))
	out.set("server.hit_ms.p99", percentile(sv.lat["hit"], 0.99))
	out.set("server.miss_ms.p50", median(sv.lat["miss"]))
	out.set("server.miss_ms.p90", percentile(sv.lat["miss"], 0.9))
	out.set("server.miss_ms.p99", percentile(sv.lat["miss"], 0.99))
	out.set("server.morphed_ms.p50", median(sv.lat["morphed"]))
	out.set("server.coalesced_ms.p50", median(sv.lat["coalesced"]))
	out.set("server.cache_hits", float64(w.Hits))
	out.set("server.cache_misses", float64(w.Misses))
	out.set("server.morphed", float64(w.Morphed))
	out.set("server.family_shared", float64(w.FamilyShared))
	out.set("server.coalesced", float64(w.Coalesced))
	out.set("server.runs", float64(w.Runs))
	out.set("server.cache_hit_rate", ratio(float64(w.Hits), float64(w.tracked())))
	out.set("server.miss_share", ratio(float64(w.Misses), float64(w.tracked())))
	out.set("server.morph_share", ratio(float64(w.Morphed), float64(w.tracked())))
	out.set("server.morph_yield", ratio(float64(w.Morphed), float64(w.Morphed+w.Misses)))
	out.set("server.admission_wait_ms.mean", ratio(w.AdmissionSumMs, float64(w.AdmissionCount)))
	out.set("server.batch.unique_frac", ratio(float64(w.BatchUnique), float64(w.BatchItems)))
	out.set("encode.resp_kb.mean", mean(sv.respKB))
	out.set("indexio.load_s", median(loads))
	out.set("indexio.snapshot_kb", float64(fi.Size())/1024)
	out.set("index.build_s", buildS)
	out.set("index.backbones_s", backbonesS)
	out.set("index.mine_s", median(mineS))
	out.set("encode.json_s", median(encS))
	out.set("encode.json_mb", median(encMB))
	out.set("obs.trace_overhead_frac", ratio(median(sv.traced), median(sv.mineMs))-1)
	if err := missStats(sv, out); err != nil {
		return nil, err
	}
	out.set("constraint.parse_us", parseCost(fams))
	out.sizing = map[string]any{
		"graphs": len(db), "vertices": vertices(db), "edges": edgeCount(db), "text_bytes": len(text),
		"snapshot_kb": float64(fi.Size()) / 1024, "distinct_requests_seen": len(keys),
		"query_space": len(fams) * len(fams[0]), "requests": sv.requests, "op_ms.p50": median(sv.mineMs),
		"peak_rss_mb": rss, "clients": nclients,
		"why": "the only workload where the cache, morphing, batch families, admission, encoding " +
			"and constraint pushdown do the work; its misses exercise Stage II with a heavy tail",
	}
	return out, nil
}

// checkLedger compares the clients' per-source tallies with the
// daemon's /metrics deltas: every tracked request lands in exactly one
// of hits, misses, coalesced, morphed and family_shared.
func checkLedger(sources map[string]int64, d counters) error {
	want := map[string]int64{"hit": d.Hits, "miss": d.Misses, "coalesced": d.Coalesced,
		"morphed": d.Morphed, "family_shared": d.FamilyShared}
	var sent int64
	for src, n := range sources {
		if src != "duplicate" {
			sent += n
		}
	}
	for src, n := range want {
		if sources[src] != n {
			return fmt.Errorf("ledger: clients saw %d %q answers, /metrics counted %d", sources[src], src, n)
		}
	}
	if sent != d.tracked() {
		return fmt.Errorf("ledger: %d tracked requests sent, /metrics accounted %d", sent, d.tracked())
	}
	return nil
}

// missStats sums the search counters and stage times over the bodies of
// responses answered by a fresh mine.
func missStats(sv *served, out *outcome) error {
	var st skinnymine.StatsJSON
	var s1, s2 float64
	for ref, n := range sv.missRefs {
		var doc struct {
			Stats skinnymine.StatsJSON `json:"stats"`
		}
		body, err := sv.body(ref)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("decode stats: %w", err)
		}
		k := float64(n)
		s1 += k * doc.Stats.DiamMineMillis / 1000
		s2 += k * doc.Stats.LevelGrowMillis / 1000
		st.PathsMined += n * doc.Stats.PathsMined
		st.ExtensionsTried += n * doc.Stats.ExtensionsTried
		st.Generated += n * doc.Stats.Generated
		st.Duplicates += n * doc.Stats.Duplicates
		st.PushdownRejects += n * doc.Stats.PushdownRejects
		st.OutputFilterRejects += n * doc.Stats.OutputFilterRejects
	}
	out.set("core.stage1_s", s1)
	out.set("core.stage2_s", s2)
	out.set("core.paths_mined", float64(st.PathsMined))
	out.set("core.extensions_tried", float64(st.ExtensionsTried))
	out.set("core.generated", float64(st.Generated))
	out.set("core.duplicates", float64(st.Duplicates))
	out.set("core.yield", ratio(float64(st.Generated), float64(st.ExtensionsTried)))
	out.set("core.dup_ratio", ratio(float64(st.Duplicates), float64(st.ExtensionsTried)))
	out.set("constraint.pushdown_rejects", float64(st.PushdownRejects))
	out.set("constraint.output_filter_rejects", float64(st.OutputFilterRejects))
	return nil
}

// parseCost is the mean time in microseconds of skinnymine.ParseConstraint
// over the distinct where strings of the query space.
func parseCost(fams []family) float64 {
	seen := make(map[string]bool)
	var wheres []string
	for _, f := range fams {
		for _, q := range f {
			if !seen[q.opt.Where] {
				seen[q.opt.Where] = true
				wheres = append(wheres, q.opt.Where)
			}
		}
	}
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, w := range wheres {
			if _, err := skinnymine.ParseConstraint(w); err != nil {
				panic(err) // the query space is fixed and valid
			}
		}
	}
	return time.Since(t0).Seconds() * 1e6 / float64(reps*len(wheres))
}
