package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"skinnymine"
	"skinnymine/internal/graph"
)

// libWorkload is one workload that calls the mining library directly.
type libWorkload struct {
	graphs func(recipes) []*graph.Graph
	opt    skinnymine.Options // Concurrency and Trace are set per call
	why    string
}

var libWorkloads = map[string]libWorkload{
	"mine-full": {
		graphs: mineFullGraphs,
		opt:    skinnymine.Options{Support: 3, Length: 4, Delta: 1},
		why: "complete enumeration (Definition 8) on one graph: Stage II does 99% of the work " +
			"and sets the allocation frontier",
	},
	"paths": {
		graphs: pathsDB,
		opt:    skinnymine.Options{Support: 9, Length: 7, Delta: 0, Measure: skinnymine.GraphCount},
		why:    "δ=0 and a long l on a transaction DB: Stage I path doubling does most of the work",
	},
	"paths-sharded": {
		graphs: pathsDB,
		opt:    skinnymine.Options{Support: 9, Length: 7, Delta: 0, Measure: skinnymine.GraphCount, Shards: 2},
		why:    "the paths inputs on the 2-shard Stage I engine with its cross-shard recount",
	},
}

// Set-up repetitions: setupReps parses before the window, and
// setupBurst more after each mine inside it, outside the mine's timing.
// setup_s is the median of all of them, so it samples the host over
// the whole run rather than over its first milliseconds.
const (
	setupReps  = 15
	setupBurst = 4
)

// runLibrary runs one library workload: parse the generated graph text
// (set-up), mine it once sequentially as the oracle, then mine it
// repeatedly for the given time, checking every result. With traced
// set, every other mine carries an Options.Trace and the run adds the
// index decomposition and the encoding measurements.
func runLibrary(w libWorkload, seed int64, seconds float64, traced bool, rec *recorder) (*outcome, error) {
	text := present(rand.New(rand.NewSource(seed)), w.graphs(recipesFor(seed)))
	out := newOutcome()

	var setups []float64
	parse := func(reps int) ([]*skinnymine.Graph, error) {
		var db []*skinnymine.Graph
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			var err error
			db, err = skinnymine.ReadGraphs(bytes.NewReader(text))
			if err != nil {
				return nil, fmt.Errorf("read graphs: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return db, nil
	}
	db, err := parse(setupReps)
	if err != nil {
		return nil, err
	}

	ref := w.opt
	ref.Concurrency, ref.Shards = 1, 0
	oracle, err := skinnymine.MineDB(db, ref)
	if err != nil {
		return nil, fmt.Errorf("oracle mine: %w", err)
	}
	want, err := resultPatterns(oracle)
	if err != nil {
		return nil, err
	}
	if err := checkLibrary(oracle, want); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	opt := w.opt
	opt.Concurrency = runtime.NumCPU()
	var plain, tracedTimes []float64
	var stage1, stage2, edges, concat, merge, shardS1, recount, shardMerge, encS, encMB []float64
	var rt runtimeDelta
	var last *skinnymine.Result
	runtime.GC()
	var mineS float64 // time spent inside the timed mines
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 1; op == 1 || time.Now().Before(deadline); op++ {
		withTrace := traced && op%2 == 0
		o := opt
		if withTrace {
			o.Trace = skinnymine.NewTrace()
		}
		before := sampleRuntime()
		t0 := time.Now()
		res, err := skinnymine.MineDB(db, o)
		t1 := time.Now()
		rt.add(before, sampleRuntime())
		mineS += t1.Sub(t0).Seconds()
		out.attempted++
		if err == nil {
			err = checkLibrary(res, want)
		}
		if _, perr := parse(setupBurst); perr != nil {
			return nil, perr
		}
		if err != nil {
			out.fail(fmt.Errorf("op %d: %w", op, err))
			continue
		}
		last = res
		if !withTrace {
			plain = append(plain, t1.Sub(t0).Seconds())
			continue
		}
		tracedTimes = append(tracedTimes, t1.Sub(t0).Seconds())
		spans := o.Trace.Spans()
		mineID := rec.add(op, 0, "core.mine", t0, t1)
		rec.addProgramSpans(op, mineID, t0, spans)
		byName := spanSums(spans)
		stage1 = append(stage1, res.Stats.DiamMineTime.Seconds())
		stage2 = append(stage2, res.Stats.LevelGrowTime.Seconds())
		edges = append(edges, byName["stage1.edges"])
		concat = append(concat, byName["stage1.concat"])
		merge = append(merge, byName["stage1.merge"])
		shardS1 = append(shardS1, byName["stage1.shard"])
		recount = append(recount, byName["stage1.shard.recount"])
		shardMerge = append(shardMerge, byName["stage1.shard.merge"])

		e0 := time.Now()
		body, err := json.Marshal(res.ToJSON())
		e1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("encode result: %w", err)
		}
		rec.add(op, 0, "encode.json", e0, e1)
		encS = append(encS, e1.Sub(e0).Seconds())
		encMB = append(encMB, float64(len(body))/(1<<20))
	}
	if last == nil {
		return out, nil
	}
	ops := float64(len(plain) + len(tracedTimes))
	all := append(append([]float64(nil), plain...), tracedTimes...)
	// Mines run one after another; the checks and set-up repetitions
	// between them are left out of the window.
	out.set("ops_per_s", ops/mineS)
	out.set("setup_s", median(setups))
	out.set("op_ms.p50", median(all)*1000)
	out.set("alloc_mb_per_op", rt.allocBytes/ops/(1<<20))
	out.set("allocs_per_op", rt.mallocs/ops)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.set("peak_rss_mb", rss)
	out.set("gc.cycles_per_op", rt.gcCycles/ops)
	out.set("gc.cpu_frac", ratio(rt.gcCPU, rt.totalCPU))
	out.sizing = map[string]any{
		"graphs": len(db), "vertices": vertices(db), "edges": edgeCount(db), "text_bytes": len(text),
		"patterns": len(last.Patterns), "op_ms.p50": median(all) * 1000, "peak_rss_mb": rss,
		"options": map[string]any{"support": w.opt.Support, "length": w.opt.Length, "delta": w.opt.Delta,
			"graph_count": w.opt.Measure == skinnymine.GraphCount, "shards": w.opt.Shards},
		"why": w.why,
	}
	if !traced {
		return out, nil
	}

	st := last.Stats
	out.set("core.stage1_s", median(stage1))
	out.set("core.stage2_s", median(stage2))
	out.set("core.stage1.edges_s", median(edges))
	out.set("core.stage1.concat_s", median(concat))
	out.set("core.stage1.merge_s", median(merge))
	out.set("shard.stage1_s", median(shardS1))
	out.set("shard.recount_s", median(recount))
	out.set("shard.merge_s", median(shardMerge))
	out.set("core.paths_mined", float64(st.PathsMined))
	out.set("core.extensions_tried", float64(st.ExtensionsTried))
	out.set("core.generated", float64(st.Generated))
	out.set("core.duplicates", float64(st.Duplicates))
	out.set("core.yield", ratio(float64(st.Generated), float64(st.ExtensionsTried)))
	out.set("core.dup_ratio", ratio(float64(st.Duplicates), float64(st.ExtensionsTried)))
	out.set("constraint.pushdown_rejects", float64(st.PushdownRejects))
	out.set("constraint.output_filter_rejects", float64(st.OutputFilterRejects))
	out.set("encode.json_s", median(encS))
	out.set("encode.json_mb", median(encMB))
	out.set("obs.trace_overhead_frac", ratio(median(tracedTimes), median(plain))-1)
	out.set("core.stage2_share", ratio(median(stage2), median(tracedTimes)))
	out.set("core.stage1_share", ratio(max(median(stage1), median(shardS1)), median(tracedTimes)))

	if err := indexDecomposition(db, opt, want, rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// indexDecomposition splits one mine into Stage I and Stage II through
// public calls on a fresh index: building it, materializing the path
// levels (MinimalBackbones), then mining from the materialized levels.
func indexDecomposition(db []*skinnymine.Graph, opt skinnymine.Options, want []byte, rec *recorder, out *outcome) error {
	const op = 0 // the decomposition is its own operation in the trace
	t0 := time.Now()
	var ix *skinnymine.Index
	var err error
	if opt.Shards > 1 {
		ix, err = skinnymine.BuildShardedIndex(db, opt.Support, opt.Shards)
	} else {
		ix, err = skinnymine.BuildIndex(db, opt.Support)
	}
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("build index: %w", err)
	}
	rec.add(op, 0, "index.build", t0, t1)
	if _, err := ix.MinimalBackbones(opt.Length); err != nil {
		return fmt.Errorf("backbones: %w", err)
	}
	t2 := time.Now()
	rec.add(op, 0, "index.backbones", t1, t2)
	res, err := ix.Mine(opt)
	t3 := time.Now()
	rec.add(op, 0, "index.mine", t2, t3)
	out.attempted++
	if err == nil {
		err = checkLibrary(res, want)
	}
	if err != nil {
		out.fail(fmt.Errorf("index mine: %w", err))
	}
	out.set("index.build_s", t1.Sub(t0).Seconds())
	out.set("index.backbones_s", t2.Sub(t1).Seconds())
	out.set("index.mine_s", t3.Sub(t2).Seconds())
	return nil
}

// spanSums totals program span durations by name, in seconds.
func spanSums(spans []skinnymine.TraceSpan) map[string]float64 {
	m := make(map[string]float64)
	for _, s := range spans {
		m[s.Name] += float64(s.DurationUs) / 1e6
	}
	return m
}

func vertices(db []*skinnymine.Graph) int {
	n := 0
	for _, g := range db {
		n += g.N()
	}
	return n
}

func edgeCount(db []*skinnymine.Graph) int {
	m := 0
	for _, g := range db {
		m += g.M()
	}
	return m
}
