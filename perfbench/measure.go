package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"skinnymine"
	"skinnymine/internal/server"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two closest ranks; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed region recorded by the benchmark around a call into
// the program, or copied from a program trace (Options.Trace, ?trace=1)
// and re-parented under the benchmark span that made the call. Spans of
// one operation share Op; Parent 0 marks an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory; write puts them out at the end of a
// run, with self times filled in.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// addProgramSpans records the spans a program trace returned under the
// benchmark span parent, which timed the call starting at callStart.
// Program spans carry no parent of their own: each is nested under the
// smallest program span whose interval contains it, or under parent.
// Program span offsets count from the trace's first span, which starts
// no earlier than the call, so anchoring them at callStart can only
// shift them early by the call's own set-up time.
func (r *recorder) addProgramSpans(op, parent int, callStart time.Time, spans []skinnymine.TraceSpan) {
	ss := append([]skinnymine.TraceSpan(nil), spans...)
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].StartUs != ss[j].StartUs {
			return ss[i].StartUs < ss[j].StartUs
		}
		return ss[i].DurationUs > ss[j].DurationUs
	})
	type open struct {
		id  int
		end int64
	}
	var stack []open
	for _, s := range ss {
		end := s.StartUs + s.DurationUs
		for len(stack) > 0 && stack[len(stack)-1].end < end {
			stack = stack[:len(stack)-1]
		}
		p := parent
		if len(stack) > 0 {
			p = stack[len(stack)-1].id
		}
		start := callStart.Add(time.Duration(s.StartUs) * time.Microsecond)
		id := r.add(op, p, s.Name, start, start.Add(time.Duration(s.DurationUs)*time.Microsecond))
		stack = append(stack, open{id, end})
	}
}

// selfTimes fills in each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range clipped {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores every span, self times filled in, plus the per-name
// totals of duration and self time, as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	type total struct {
		Count  int   `json:"count"`
		DurNs  int64 `json:"dur_ns"`
		SelfNs int64 `json:"self_ns"`
	}
	byName := make(map[string]*total)
	for _, s := range r.spans {
		t := byName[s.Name]
		if t == nil {
			t = &total{}
			byName[s.Name] = t
		}
		t.Count++
		t.DurNs += s.End - s.Start
		t.SelfNs += s.Self
	}
	body, err := json.Marshal(struct {
		Totals map[string]*total `json:"totals"`
		Spans  []span            `json:"spans"`
	}{byName, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// counters is the part of the daemon's /metrics document the benchmark
// reads: the mining ledger, batch composition and admission waiting.
type counters struct {
	Hits, Misses, Coalesced, Morphed, FamilyShared, Runs int64
	BatchItems, BatchUnique                              int64
	AdmissionCount                                       int64
	AdmissionSumMs                                       float64
}

// parseCounters decodes a GET /metrics body.
func parseCounters(body []byte) (counters, error) {
	var m server.MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		return counters{}, fmt.Errorf("decode /metrics: %w", err)
	}
	return counters{
		Hits: m.Mine.CacheHits, Misses: m.Mine.CacheMisses, Coalesced: m.Mine.Coalesced,
		Morphed: m.Mine.Morphed, FamilyShared: m.Mine.FamilyShared, Runs: m.Mine.Runs,
		BatchItems: m.Batch.Items, BatchUnique: m.Batch.Unique,
		AdmissionCount: m.AdmissionWaitMs.Count, AdmissionSumMs: m.AdmissionWaitMs.SumMs,
	}, nil
}

// sub returns the change from before to c.
func (c counters) sub(before counters) counters {
	return counters{
		Hits: c.Hits - before.Hits, Misses: c.Misses - before.Misses,
		Coalesced: c.Coalesced - before.Coalesced, Morphed: c.Morphed - before.Morphed,
		FamilyShared: c.FamilyShared - before.FamilyShared, Runs: c.Runs - before.Runs,
		BatchItems:     c.BatchItems - before.BatchItems,
		BatchUnique:    c.BatchUnique - before.BatchUnique,
		AdmissionCount: c.AdmissionCount - before.AdmissionCount,
		AdmissionSumMs: c.AdmissionSumMs - before.AdmissionSumMs,
	}
}

// tracked is how many mining requests the ledger accounted.
func (c counters) tracked() int64 {
	return c.Hits + c.Misses + c.Coalesced + c.Morphed + c.FamilyShared
}

// runtimeSample is the process-wide allocation and GC state at one
// instant; differences of two samples bracket the timed calls.
type runtimeSample struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU, totalCPU               float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := []metrics.Sample{{Name: cpuMetrics[0]}, {Name: cpuMetrics[1]}}
	metrics.Read(m)
	return runtimeSample{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: uint64(ms.NumGC),
		gcCPU: m[0].Value.Float64(), totalCPU: m[1].Value.Float64()}
}

// runtimeDelta accumulates the allocation and GC cost of the timed
// calls only.
type runtimeDelta struct {
	allocBytes, mallocs, gcCycles float64
	gcCPU, totalCPU               float64
}

func (d *runtimeDelta) add(before, after runtimeSample) {
	d.allocBytes += float64(after.allocBytes - before.allocBytes)
	d.mallocs += float64(after.mallocs - before.mallocs)
	d.gcCycles += float64(after.gcCycles - before.gcCycles)
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
