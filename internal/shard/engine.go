// Package shard implements horizontally partitioned mining: the
// transaction database is split into P shards (hash-by-gid with a
// size-balancing pass, Partition), Stage I candidate generation runs
// shard-parallel with a cross-shard merge per path level, and Stage II
// grows the merged seeds through the shared core engine. Output is
// byte-identical to unsharded mining at every shard count — sharding is
// an execution strategy, never a semantics change.
//
// # Why the merge is exact
//
// Stage I joins only ever combine embeddings that live in the same data
// graph, and each graph belongs to exactly one shard. Per level, each
// shard therefore assembles exactly the unsharded candidate set
// restricted to its own graphs (core.ShardStage1, threshold-1), and the
// cross-shard merge — group by canonical label sequence, concatenate
// the disjoint embedding lists, recount distinct subgraphs, apply the
// global σ — reproduces the unsharded level byte for byte (mergeLevel).
// The surviving patterns are projected back per shard as the next
// level's join input, so pruning power at the global threshold is never
// lost: shards only ever extend globally frequent paths.
//
// Stage II needs global supports for every growth step, so it runs once
// over the merged seeds through the unchanged core engine (seeds fan
// across the request's worker pool); pattern-level supports are exact
// by construction rather than by aggregation. A Where constraint prunes
// at seed selection and inside growth, exactly like a shared
// DirectIndex — the shard level caches stay complete for every other
// request.
//
// # Execution strategies
//
// Where a level's per-shard candidates come from is a second pluggable
// seam: the Engine drives a stage1Runner, which is either the in-process
// runner (one core.ShardStage1 per shard, the PR 5 engine) or the
// remote coordinator runner (one HTTP worker per shard, remote.go).
// Everything above the runner — the doubling schedule, the merge, the
// caches, Stage II — is shared, so the distributed engine inherits the
// byte-identical guarantee from the same code path the in-process one
// is pinned by.
//
// # Concurrency and ownership
//
// An Engine is safe for concurrent Mine/MinimalPatterns callers: the
// merged-level and projection caches are guarded by one RWMutex
// (materialization holds the write lock for its full cost, like
// DiamMiner), each shard's join runner is driven by exactly one
// goroutine per level, and the inner DirectIndex has its own locking.
// SetConcurrency follows the DirectIndex convention: call it before
// serving, not concurrently with requests. Graphs, levels and
// projections handed out by ShardStates/MinimalPatterns are shared,
// not copied — treat them as read-only.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/obs"
)

// stage1Runner produces one shard's Stage I candidates for one level
// step. The Engine drives it with exactly one call per shard per step;
// implementations are the in-process localRunner and the HTTP
// remoteRunner (remote.go). Inputs and outputs use GLOBAL graph IDs —
// a runner that ships work elsewhere owns the remapping. A runner
// returning an error fails the whole materialization (the Engine never
// serves a partial level).
type stage1Runner interface {
	// edges returns shard s's level-1 candidates.
	edges(ctx context.Context, s, workers int) ([]*core.PathPattern, error)
	// concat doubles shard s's projections of the merged level L into
	// its length-2L candidates.
	concat(ctx context.Context, s int, prev []*core.PathPattern, workers int) ([]*core.PathPattern, error)
	// merge overlaps shard s's projections of the merged level m into
	// its length-l candidates (m < l < 2m).
	merge(ctx context.Context, s int, pool []*core.PathPattern, l, m, workers int) ([]*core.PathPattern, error)
	// close releases runner resources (health probes, idle
	// connections). The in-process runner has none.
	close() error
}

// localRunner runs Stage I in-process: one core.ShardStage1 per shard
// over the shared full graph slice.
type localRunner struct {
	stages []*core.ShardStage1
}

func newLocalRunner(graphs []*graph.Graph, assign [][]int32) (*localRunner, error) {
	stages := make([]*core.ShardStage1, len(assign))
	var err error
	for s, gids := range assign {
		if stages[s], err = core.NewShardStage1(graphs, gids); err != nil {
			return nil, err
		}
	}
	return &localRunner{stages: stages}, nil
}

func (r *localRunner) edges(_ context.Context, s, _ int) ([]*core.PathPattern, error) {
	return r.stages[s].EdgeCandidates(), nil
}

func (r *localRunner) concat(_ context.Context, s int, prev []*core.PathPattern, workers int) ([]*core.PathPattern, error) {
	return r.stages[s].ConcatCandidates(prev, workers), nil
}

func (r *localRunner) merge(_ context.Context, s int, pool []*core.PathPattern, l, m, workers int) ([]*core.PathPattern, error) {
	return r.stages[s].MergeCandidates(pool, l, m, workers), nil
}

func (r *localRunner) close() error { return nil }

// Engine is a sharded mining engine over one partitioned transaction
// database: a per-shard Stage I runner (in-process or remote), the
// merged global level cache, and a DirectIndex the merged levels are
// preloaded into for Stage II.
type Engine struct {
	graphs []*graph.Graph
	sigma  int
	assign [][]int32
	runner stage1Runner
	ix     *core.DirectIndex
	conc   int // MinimalPatterns worker budget; Mine uses the request's

	mu     sync.RWMutex
	levels map[int][]*core.PathPattern   // merged global levels
	local  map[int][][]*core.PathPattern // per level: per-shard projections
}

// New partitions the database into the given number of shards (clamped
// to [1, len(graphs)]) and returns an engine mining at threshold σ. No
// Stage I work happens until the first request.
func New(graphs []*graph.Graph, sigma, shards int) (*Engine, error) {
	return newEngine(graphs, sigma, Partition(graphs, shards))
}

func newEngine(graphs []*graph.Graph, sigma int, assign [][]int32) (*Engine, error) {
	ix, err := core.BuildIndex(graphs, sigma)
	if err != nil {
		return nil, err
	}
	runner, err := newLocalRunner(graphs, assign)
	if err != nil {
		return nil, err
	}
	return &Engine{
		graphs: graphs,
		sigma:  sigma,
		assign: assign,
		runner: runner,
		ix:     ix,
		levels: make(map[int][]*core.PathPattern),
		local:  make(map[int][][]*core.PathPattern),
	}, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.assign) }

// Sigma returns the frequency threshold σ the engine was built with.
func (e *Engine) Sigma() int { return e.sigma }

// NumGraphs returns the number of database graphs behind the engine.
func (e *Engine) NumGraphs() int { return len(e.graphs) }

// Assignment returns each shard's graph IDs (ascending), copied.
func (e *Engine) Assignment() [][]int32 {
	out := make([][]int32, len(e.assign))
	for s, gids := range e.assign {
		out[s] = append([]int32(nil), gids...)
	}
	return out
}

// SetConcurrency bounds the worker budget MinimalPatterns
// materialization spreads across the shards (<= 0 means one worker per
// available CPU). Mine requests use their own Options.Concurrency. Call
// it before serving, not concurrently with requests.
func (e *Engine) SetConcurrency(n int) { e.conc = n }

// Concurrency reports the current MinimalPatterns worker budget, always
// resolved to a positive count.
func (e *Engine) Concurrency() int {
	if e.conc <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.conc
}

// MaterializedLevels returns the path lengths whose merged global level
// is cached, ascending.
func (e *Engine) MaterializedLevels() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]int, 0, len(e.levels))
	for l := range e.levels {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// Mine serves one request: the request's diameter band is materialized
// shard-parallel (cache hits skip straight through), the merged levels
// are preloaded into the inner index, and Stage II runs over the merged
// seeds through the core engine. The result — pattern set, supports,
// output order — is byte-identical to unsharded mining with the same
// options; the sharded Stage I wall-clock is folded into
// Stats.DiamMineTime.
func (e *Engine) Mine(opt core.Options) (*core.Result, error) {
	//lint:allow ctxflow compatibility entry point, ctx-aware callers use MineCtx
	return e.MineCtx(context.Background(), opt)
}

// MineCtx is Mine with a caller-supplied context. An already-done
// context returns its error before any work starts. After that the
// in-process engine does not consult it again: a level step or Stage II
// growth, once begun, runs to completion. A remote engine additionally
// propagates its deadline into every worker RPC, so a client that gives
// up stops costing the workers anything.
func (e *Engine) MineCtx(ctx context.Context, opt core.Options) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Support != e.sigma {
		return nil, fmt.Errorf("core: index was built with support %d, request uses %d", e.sigma, opt.Support)
	}
	// One tracer serves the whole request: either the caller set it on
	// the options, or it rides the context (the serving daemon's path).
	// It is re-wrapped into ctx so the runner — and a remote runner's
	// per-RPC spans — see the same trace. Observation only: output is
	// byte-identical with tracing on and off.
	if opt.Tracer == nil {
		opt.Tracer = obs.FromContext(ctx)
	}
	tr := obs.Default(opt.Tracer)
	ctx = obs.NewContext(ctx, tr)
	var shardTime time.Duration
	lo := opt.Length
	if opt.MinLength > 0 {
		lo = opt.MinLength
	}
	// An invalid band falls through to the core validator so every
	// surface rejects it with one message; nothing is materialized.
	if lo >= 1 && lo <= opt.Length {
		lengths := make([]int, 0, opt.Length-lo+1)
		for l := lo; l <= opt.Length; l++ {
			lengths = append(lengths, l)
		}
		// Named stage1.shard, not stage1: the inner core engine opens its
		// own "stage1" span over the (now cache-hitting) seed collection,
		// and a trace with two identically named stage spans would be
		// ambiguous to sum.
		t0 := time.Now()
		sp := tr.Start("stage1.shard").TagInt("shards", int64(len(e.assign)))
		if err := e.preloadLevels(ctx, lengths, opt.Concurrency); err != nil {
			sp.Tag("outcome", "error").End()
			return nil, err
		}
		sp.End()
		shardTime = time.Since(t0)
	}
	res, err := e.ix.Mine(opt)
	if err != nil {
		return nil, err
	}
	res.Stats.DiamMineTime += shardTime
	return res, nil
}

// MinimalPatterns returns the globally frequent paths of length l — the
// merged Stage I level — materializing it shard-parallel on a miss.
func (e *Engine) MinimalPatterns(l int) ([]*core.PathPattern, error) {
	//lint:allow ctxflow compatibility entry point, ctx-aware callers use MinimalPatternsCtx
	return e.MinimalPatternsCtx(context.Background(), l)
}

// MinimalPatternsCtx is MinimalPatterns with a caller-supplied context:
// shard-parallel materialization observes cancellation between shard
// steps, and a remote engine propagates the deadline into worker RPCs.
func (e *Engine) MinimalPatternsCtx(ctx context.Context, l int) ([]*core.PathPattern, error) {
	if err := e.preloadLevels(ctx, []int{l}, e.conc); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.levels[l], nil
}

// Close releases the runner's resources: a no-op for the in-process
// engine, probe-and-connection shutdown for a remote one. The engine
// itself stays usable for cached levels but must not materialize new
// ones afterwards.
func (e *Engine) Close() error { return e.runner.close() }

// preloadLevels materializes any missing lengths shard-parallel and
// installs the merged levels into the inner DirectIndex, so the Stage
// II entry point only ever sees cache hits (a miss there would fall
// back to unsharded materialization — correct, but never intended).
func (e *Engine) preloadLevels(ctx context.Context, lengths []int, workers int) error {
	if err := e.ensureLevels(ctx, lengths, workers); err != nil {
		return err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, l := range lengths {
		if err := e.ix.PreloadLevel(l, e.levels[l]); err != nil {
			return err
		}
	}
	return nil
}

// ensureLevels materializes every missing requested length under the
// write lock.
func (e *Engine) ensureLevels(ctx context.Context, lengths []int, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.mu.RLock()
	missing := false
	for _, l := range lengths {
		if _, ok := e.levels[l]; !ok {
			missing = true
			break
		}
	}
	e.mu.RUnlock()
	if !missing {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, l := range lengths {
		if err := e.materialize(ctx, l, workers); err != nil {
			return err
		}
	}
	return nil
}

// materialize computes the merged level for length l, following the
// exact doubling schedule of DiamMiner.mine — powers of two up to the
// largest k <= l, then one overlap merge when l is not itself a power —
// with each step's candidate generation fanned across the shards. A
// failed step (a remote worker unreachable past its retry budget)
// leaves the caches exactly as they were: levels are stored only after
// every shard's part arrived. Callers hold e.mu.
func (e *Engine) materialize(ctx context.Context, l, workers int) error {
	if l < 1 {
		return fmt.Errorf("shard: path length must be >= 1, got %d", l)
	}
	if _, ok := e.levels[l]; ok {
		return nil
	}
	tr := obs.FromContext(ctx)
	k := 1
	for k*2 <= l {
		k *= 2
	}
	for p := 1; p <= k; p *= 2 {
		if _, ok := e.levels[p]; ok {
			continue
		}
		var parts [][]*core.PathPattern
		var err error
		if p == 1 {
			sp := tr.Start("stage1.shard.edges").TagInt("level", 1)
			parts, err = e.runShards(ctx, workers, func(ctx context.Context, s, w int) ([]*core.PathPattern, error) {
				return e.runner.edges(ctx, s, w)
			})
			endShardSpan(sp, parts, err)
		} else {
			prev := e.local[p/2]
			sp := tr.Start("stage1.shard.concat").TagInt("level", int64(p))
			parts, err = e.runShards(ctx, workers, func(ctx context.Context, s, w int) ([]*core.PathPattern, error) {
				return e.runner.concat(ctx, s, prev[s], w)
			})
			endShardSpan(sp, parts, err)
		}
		if err != nil {
			return err
		}
		e.store(ctx, p, parts)
	}
	if l != k {
		pool := e.local[k]
		sp := tr.Start("stage1.shard.merge").TagInt("level", int64(l)).TagInt("base", int64(k))
		parts, err := e.runShards(ctx, workers, func(ctx context.Context, s, w int) ([]*core.PathPattern, error) {
			return e.runner.merge(ctx, s, pool[s], l, k, w)
		})
		endShardSpan(sp, parts, err)
		if err != nil {
			return err
		}
		e.store(ctx, l, parts)
	}
	return nil
}

// endShardSpan closes one level step's span with its candidate count
// (summed across the shards) or its failure.
func endShardSpan(sp *obs.Span, parts [][]*core.PathPattern, err error) {
	if err != nil {
		sp.Tag("outcome", "error").End()
		return
	}
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	sp.TagInt("candidates", int64(n)).End()
}

// runShards executes one level's candidate generation across the
// shards within the request's worker budget: at most `workers` shards
// run at once (Concurrency=1 stays fully sequential, honoring the
// public contract), and when the budget exceeds the shard count the
// surplus fans out inside each shard's joins. parts[s] is shard s's
// output; the indexed writes keep the result independent of goroutine
// scheduling, and the lowest failing shard's error is reported so one
// outage yields one deterministic message.
func (e *Engine) runShards(ctx context.Context, workers int, run func(ctx context.Context, s, w int) ([]*core.PathPattern, error)) ([][]*core.PathPattern, error) {
	if workers < 1 {
		workers = 1
	}
	n := len(e.assign)
	per, extra := workers/n, workers%n
	if per < 1 {
		per, extra = 1, 0
	}
	parts := make([][]*core.PathPattern, n)
	errs := make([]error, n)
	inFlight := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		w := per
		if s < extra { // spread the budget remainder over the first shards
			w++
		}
		wg.Add(1)
		inFlight <- struct{}{}
		go func(s, w int) {
			defer wg.Done()
			defer func() { <-inFlight }()
			parts[s], errs[s] = run(ctx, s, w)
		}(s, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// store merges one level's per-shard candidates and caches both the
// global level and the per-shard projections. The cross-shard recount
// gets its own span: it is the coordinator-side cost a distributed
// deployment cannot shard away. Callers hold e.mu.
func (e *Engine) store(ctx context.Context, l int, parts [][]*core.PathPattern) {
	in := 0
	for _, part := range parts {
		in += len(part)
	}
	sp := obs.FromContext(ctx).Start("stage1.shard.recount").TagInt("level", int64(l)).TagInt("candidates", int64(in))
	global, local := mergeLevel(parts, e.sigma)
	sp.TagInt("patterns", int64(len(global))).End()
	e.levels[l] = global
	e.local[l] = local
}

// ShardStates exports each shard's serializable content — the shard's
// graphs and its projections of every materialized level, with graph
// IDs remapped to shard-local positions — so each shard persists as a
// standalone v1 snapshot stream under the sharded manifest. Inverse of
// Restore. Shared data is not copied; treat it as read-only.
func (e *Engine) ShardStates() []core.IndexState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]core.IndexState, len(e.assign))
	for s, gids := range e.assign {
		toLocal := make(map[int32]int32, len(gids))
		graphs := make([]*graph.Graph, len(gids))
		for i, gid := range gids {
			toLocal[gid] = int32(i)
			graphs[i] = e.graphs[gid]
		}
		levels := make(map[int][]*core.PathPattern, len(e.local))
		for l, parts := range e.local {
			src := parts[s]
			ps := make([]*core.PathPattern, len(src))
			for i, p := range src {
				embs := make([]core.PathEmb, len(p.Embs))
				for j, emb := range p.Embs {
					embs[j] = core.PathEmb{GID: toLocal[emb.GID], Seq: emb.Seq}
				}
				ps[i] = &core.PathPattern{Seq: p.Seq, Embs: embs, Support: p.Support}
			}
			levels[l] = ps
		}
		out[s] = core.IndexState{Graphs: graphs, Sigma: e.sigma, Levels: levels}
	}
	return out
}

// Restore rebuilds an engine from per-shard states and the shard
// assignment (a loaded sharded snapshot). It validates that the
// assignment covers every graph exactly once and matches each state's
// graph count, that all states agree on σ and on the materialized level
// set, and that re-merging the projections reproduces a full level —
// a stored pattern whose aggregated support falls below σ is corruption,
// not data.
func Restore(states []core.IndexState, assign [][]int32, sigma int) (*Engine, error) {
	if len(states) == 0 || len(states) != len(assign) {
		return nil, fmt.Errorf("shard: %d states for %d shards", len(states), len(assign))
	}
	total := 0
	for _, gids := range assign {
		total += len(gids)
	}
	graphs := make([]*graph.Graph, total)
	seen := make([]bool, total)
	for s, gids := range assign {
		st := states[s]
		if st.Sigma != sigma {
			return nil, fmt.Errorf("shard: shard %d was built with support %d, manifest says %d", s, st.Sigma, sigma)
		}
		if len(gids) != len(st.Graphs) {
			return nil, fmt.Errorf("shard: shard %d holds %d graphs, assignment lists %d", s, len(st.Graphs), len(gids))
		}
		for i, gid := range gids {
			if int(gid) < 0 || int(gid) >= total || seen[gid] {
				return nil, fmt.Errorf("shard: assignment graph ID %d duplicate or out of range [0, %d)", gid, total)
			}
			seen[gid] = true
			graphs[gid] = st.Graphs[i]
		}
	}
	for s := 1; s < len(states); s++ {
		if len(states[s].Levels) != len(states[0].Levels) {
			return nil, fmt.Errorf("shard: shard %d has %d levels, shard 0 has %d", s, len(states[s].Levels), len(states[0].Levels))
		}
		for l := range states[0].Levels {
			if _, ok := states[s].Levels[l]; !ok {
				return nil, fmt.Errorf("shard: shard %d is missing level %d", s, l)
			}
		}
	}
	e, err := newEngine(graphs, sigma, assign)
	if err != nil {
		return nil, err
	}
	for l := range states[0].Levels {
		parts := make([][]*core.PathPattern, len(states))
		distinct := make(map[string]struct{})
		for s := range states {
			gids := assign[s]
			src := states[s].Levels[l]
			ps := make([]*core.PathPattern, len(src))
			for i, p := range src {
				if len(p.Seq) != l+1 {
					return nil, fmt.Errorf("shard: shard %d level %d pattern has %d labels, want %d", s, l, len(p.Seq), l+1)
				}
				embs := make([]core.PathEmb, len(p.Embs))
				for j, emb := range p.Embs {
					if int(emb.GID) < 0 || int(emb.GID) >= len(gids) {
						return nil, fmt.Errorf("shard: shard %d level %d embedding references local graph %d of %d", s, l, emb.GID, len(gids))
					}
					// Vertex ranges are checked HERE, not deferred to
					// PreloadLevel: restored projections feed straight
					// into the join scratch arrays when a later request
					// materializes a higher level, and only the
					// requested band passes through PreloadLevel — an
					// out-of-range vertex must be load-time corruption,
					// never a request-time panic (the guarantee the
					// unsharded path gets from RestoreIndex).
					g := graphs[gids[emb.GID]]
					if len(emb.Seq) != l+1 {
						return nil, fmt.Errorf("shard: shard %d level %d embedding has %d vertices, want %d", s, l, len(emb.Seq), l+1)
					}
					for _, v := range emb.Seq {
						if int(v) < 0 || int(v) >= g.N() {
							return nil, fmt.Errorf("shard: shard %d level %d embedding vertex %d out of range for graph %d", s, l, v, gids[emb.GID])
						}
					}
					embs[j] = core.PathEmb{GID: gids[emb.GID], Seq: emb.Seq}
				}
				ps[i] = &core.PathPattern{Seq: p.Seq, Embs: embs, Support: p.Support}
				distinct[labelKey(p.Seq)] = struct{}{}
			}
			parts[s] = ps
		}
		global, local := mergeLevel(parts, sigma)
		if len(global) != len(distinct) {
			return nil, fmt.Errorf("shard: level %d holds %d patterns below the σ=%d threshold: snapshot is corrupted", l, len(distinct)-len(global), sigma)
		}
		e.levels[l] = global
		e.local[l] = local
	}
	return e, nil
}
