// Command perfbench is the repository's benchmark: one command that
// generates a workload's inputs from a seed, runs the miner or the
// serving daemon on them for a fixed time, checks every output, and
// prints every metric by name with its unit. See README.md for the
// workloads, the metrics and the layer each one belongs to.
//
// Usage (from the repository root, which perfbench/run.sh builds from):
//
//	bash perfbench/run.sh --workload mine-full --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// runs with tracing and reports the per-layer metrics, writing the
// spans under the work directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// claimCheckSeed is kept out of day-to-day tuning: a claimed gain must
// also hold on it. It selects claimRecipes, a second set of input
// structures and request popularity, not only another presentation.
const claimCheckSeed = 1000003

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the miner or the daemon sees, on
// every workload. An operation is one mine on the library workloads
// and one request (/v1/mine or /v1/batch) on serve-mix; op_ms.p50 is
// the mine time on the library workloads and the /v1/mine request
// latency on serve-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms.p50", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
}

// perLayer are the traced run's metrics, named after the module that
// does the work. A workload that does not exercise a layer reports 0
// for it.
var perLayer = []metricDef{
	{"core.stage1_s", "s"},
	{"core.stage2_s", "s"},
	{"core.stage1_share", "ratio"},
	{"core.stage2_share", "ratio"},
	{"core.stage1.edges_s", "s"},
	{"core.stage1.concat_s", "s"},
	{"core.stage1.merge_s", "s"},
	{"core.paths_mined", "count"},
	{"core.extensions_tried", "count"},
	{"core.generated", "count"},
	{"core.duplicates", "count"},
	{"core.yield", "ratio"},
	{"core.dup_ratio", "ratio"},
	{"shard.stage1_s", "s"},
	{"shard.recount_s", "s"},
	{"shard.merge_s", "s"},
	{"index.build_s", "s"},
	{"index.backbones_s", "s"},
	{"index.mine_s", "s"},
	{"encode.json_s", "s"},
	{"encode.json_mb", "MB"},
	{"encode.resp_kb.mean", "KB"},
	{"constraint.pushdown_rejects", "count"},
	{"constraint.output_filter_rejects", "count"},
	{"constraint.parse_us", "us"},
	{"mine_req_ms.p99", "ms"},
	{"batch_req_ms.p50", "ms"},
	{"batch_req_ms.p90", "ms"},
	{"server.hit_ms.p50", "ms"},
	{"server.hit_ms.p99", "ms"},
	{"server.miss_ms.p50", "ms"},
	{"server.miss_ms.p90", "ms"},
	{"server.miss_ms.p99", "ms"},
	{"server.morphed_ms.p50", "ms"},
	{"server.coalesced_ms.p50", "ms"},
	{"server.cache_hit_rate", "ratio"},
	{"server.miss_share", "ratio"},
	{"server.morph_share", "ratio"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.morphed", "count"},
	{"server.family_shared", "count"},
	{"server.coalesced", "count"},
	{"server.runs", "count"},
	{"server.morph_yield", "ratio"},
	{"server.admission_wait_ms.mean", "ms"},
	{"server.batch.unique_frac", "ratio"},
	{"indexio.load_s", "s"},
	{"indexio.snapshot_kb", "KB"},
	{"gc.cycles_per_op", "count"},
	{"gc.cpu_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"failed_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "mine-full, paths, paths-sharded or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench", "directory for the snapshot file and the traces")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, work string) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	printLine(map[string]any{"meta": metadata(workload, seed, traced)})
	rec := newRecorder()
	var out *outcome
	var err error
	if w, ok := libWorkloads[workload]; ok {
		out, err = runLibrary(w, seed, seconds, traced, rec)
	} else if workload == "serve-mix" {
		out, err = runServe(seed, seconds, traced, work, rec)
	} else {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	if out.attempted == 0 {
		return fmt.Errorf("no operation completed")
	}
	out.set("failed_frac", float64(out.failed)/float64(out.attempted))
	if traced {
		dir := filepath.Join(work, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := rec.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	printLine(map[string]any{"sizing": out.sizing})
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := report{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: out.values[d.name], Unit: d.unit}
	}
	printLine(rep)
	return nil
}

func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers are printed
	}
	fmt.Println(string(b))
}

// metadata describes the machine, toolchain and commit a run measured.
func metadata(workload string, seed int64, traced bool) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload": workload, "seed": seed, "traced": traced, "claim_check_seed": claimCheckSeed,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": cpuModel(),
		"go_version": runtime.Version(), "git_commit": commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// outcome is what one run produced: the op ledger, the metric values by
// name, and the sizing record.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	sizing            map[string]any
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// fail counts a failed op and reports why on standard error.
func (o *outcome) fail(err error) {
	o.failed++
	fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
}
