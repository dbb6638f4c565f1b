package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"skinnymine"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// op: [0,100]; two children overlap on [30,40] and one pokes out
	// of the parent past 100; a grandchild sits inside the first child.
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
	}
	selfTimes(spans)
	want := map[string]int64{"op": 100 - (50 + 10), "a": 30 - 5, "b": 30, "c": 30, "a1": 5}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestCountersDelta(t *testing.T) {
	before := `{"mine":{"cache_hits":10,"cache_misses":4,"coalesced":1,"morphed":2,"family_shared":3,"runs":9,"errors":0},
		"batch":{"items":20,"unique":15},"admission_wait_ms":{"count":5,"sum_ms":2.5}}`
	after := `{"uptime_seconds":3,"requests_total":{"mine":40},
		"mine":{"cache_hits":30,"cache_misses":6,"coalesced":1,"morphed":12,"family_shared":7,"runs":13,"errors":0,"latency_ms":{"count":13}},
		"batch":{"items":32,"unique":24},"admission_wait_ms":{"count":9,"sum_ms":4.5}}`
	b, err := parseCounters([]byte(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseCounters([]byte(after))
	if err != nil {
		t.Fatal(err)
	}
	d := a.sub(b)
	want := counters{Hits: 20, Misses: 2, Morphed: 10, FamilyShared: 4, Runs: 4,
		BatchItems: 12, BatchUnique: 9, AdmissionCount: 4, AdmissionSumMs: 2}
	if d != want {
		t.Fatalf("delta = %+v, want %+v", d, want)
	}
	if d.tracked() != 36 {
		t.Errorf("tracked = %d, want 36", d.tracked())
	}
	if err := checkLedger(map[string]int64{"hit": 20, "miss": 2, "morphed": 10, "family_shared": 4, "duplicate": 3}, d); err != nil {
		t.Errorf("matching tallies rejected: %v", err)
	}
	if err := checkLedger(map[string]int64{"hit": 19, "miss": 3, "morphed": 10, "family_shared": 4}, d); err == nil {
		t.Error("a hit counted as a miss passed the ledger check")
	}
	if _, err := parseCounters([]byte("not json")); err == nil {
		t.Error("a malformed /metrics body parsed")
	}
}

// TestCatalogueMatchesBenchmarkFile keeps the metric names and units the
// command prints in step with BENCHMARK.json at the repository root.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the command, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: command has %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	runs := []string{"serve-mix"}
	for n := range libWorkloads {
		runs = append(runs, n)
	}
	sort.Strings(names)
	sort.Strings(runs)
	if got, want := strings.Join(names, ","), strings.Join(runs, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command runs %s", got, want)
	}
}

func TestProgramSpansNest(t *testing.T) {
	r := newRecorder()
	call := r.t0.Add(time.Millisecond)
	root := r.add(1, 0, "core.mine", call, call.Add(time.Second))
	r.addProgramSpans(1, root, call, []skinnymine.TraceSpan{
		{Name: "C", StartUs: 40, DurationUs: 80},
		{Name: "A", StartUs: 0, DurationUs: 100},
		{Name: "D", StartUs: 60, DurationUs: 20},
		{Name: "B", StartUs: 10, DurationUs: 40},
	})
	names := map[int]string{}
	starts := map[string]int64{}
	for _, s := range r.spans {
		names[s.ID] = s.Name
		starts[s.Name] = s.Start
	}
	want := map[string]string{"A": "core.mine", "B": "A", "C": "core.mine", "D": "C"}
	for _, s := range r.spans[1:] {
		if got := names[s.Parent]; got != want[s.Name] {
			t.Errorf("parent of %s = %s, want %s", s.Name, got, want[s.Name])
		}
		if s.Op != 1 {
			t.Errorf("%s: op %d, want 1", s.Name, s.Op)
		}
	}
	if got := starts["C"]; got != (time.Millisecond + 40*time.Microsecond).Nanoseconds() {
		t.Errorf("C starts at %d ns, want the call start plus 40us", got)
	}
}
