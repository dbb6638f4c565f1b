package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func tinyConfig() Config { return Config{Seed: 3, Scale: 0.05} }

// skipIfShort guards the experiment-harness tests, which regenerate
// paper figures and dominate the suite's runtime (tens of seconds);
// `go test -short ./...` runs only the fast shape/render tests.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow experiment reproduction; run without -short")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "333") {
		t.Errorf("render output:\n%s", out)
	}
}

func TestHistTableAndSeriesTable(t *testing.T) {
	ht := HistTable("h", []Hist{
		{Algo: "A", Sizes: map[int]int{3: 2, 5: 1}},
		{Algo: "B", Sizes: map[int]int{3: 4}},
	})
	if len(ht.Rows) != 2 || ht.Rows[0][0] != "3" {
		t.Errorf("hist table rows: %v", ht.Rows)
	}
	st := SeriesTable("s", "x", []Series{
		{Name: "A", X: []float64{1, 2}, Y: []float64{0.5, 1}},
		{Name: "B", X: []float64{1, 2}, Y: []float64{2, 3}},
	})
	if len(st.Rows) != 2 || st.Header[1] != "A" {
		t.Errorf("series table: %+v", st)
	}
	if SeriesTable("e", "x", nil).Rows != nil {
		t.Error("empty series table should have no rows")
	}
}

// TestFig4Distribution checks the Figure 4-8 shape at tiny scale:
// SkinnyMine recovers the injected long patterns (largest sizes), while
// SUBDUE and SEuS stay at small sizes.
func TestFig4Distribution(t *testing.T) {
	skipIfShort(t)
	res, err := RunPatternDistribution(tinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hists) != 4 {
		t.Fatalf("want 4 histograms, got %d", len(res.Hists))
	}
	maxOf := func(name string) int {
		for _, h := range res.Hists {
			if h.Algo == name {
				max := 0
				for s := range h.Sizes {
					if s > max {
						max = s
					}
				}
				return max
			}
		}
		t.Fatalf("histogram %s missing", name)
		return 0
	}
	skinnyMax := maxOf("SkinnyMine")
	if skinnyMax < 12 {
		t.Errorf("SkinnyMine largest pattern |V|=%d; should recover injected long patterns", skinnyMax)
	}
	if subdueMax := maxOf("SUBDUE"); subdueMax > skinnyMax {
		t.Errorf("SUBDUE largest %d should not exceed SkinnyMine's %d", subdueMax, skinnyMax)
	}
	if seusMax := maxOf("SEuS"); seusMax > 6 {
		t.Errorf("SEuS largest %d; node collapsing should keep it small", seusMax)
	}
	for _, a := range []string{"SkinnyMine", "SpiderMine", "SUBDUE", "SEuS", "MoSS"} {
		if _, ok := res.Runtimes[a]; !ok {
			t.Errorf("runtime missing for %s", a)
		}
	}
}

func TestFig4BadGID(t *testing.T) {
	if _, err := RunPatternDistribution(tinyConfig(), 0); err == nil {
		t.Error("GID 0 should error")
	}
}

func TestRuntimeTableShape(t *testing.T) {
	skipIfShort(t)
	tb, err := RunRuntimeTable(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 || len(tb.Header) != 6 {
		t.Errorf("runtime table %dx%d, want 5x6", len(tb.Rows), len(tb.Header))
	}
}

// TestSkinninessLadder checks the Table-3 contrast: SkinnyMine recovers
// the skinny patterns (PID 1-5); SpiderMine's best coverage on the
// fattest patterns exceeds its coverage on the skinniest.
func TestSkinninessLadder(t *testing.T) {
	skipIfShort(t)
	rows, err := RunSkinninessLadder(Config{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(rows))
	}
	skinnyHits := 0
	for _, r := range rows[:5] {
		if r.SkinnyHit {
			skinnyHits++
		}
	}
	if skinnyHits < 4 {
		t.Errorf("SkinnyMine recovered %d of the 5 skinny patterns; want >= 4", skinnyHits)
	}
	avg := func(rs []LadderRow) float64 {
		var s float64
		for _, r := range rs {
			s += r.SpiderBest
		}
		return s / float64(len(rs))
	}
	if avg(rows[5:]) <= avg(rows[:5]) {
		t.Errorf("SpiderMine coverage on fat patterns (%.2f) should exceed skinny (%.2f)",
			avg(rows[5:]), avg(rows[:5]))
	}
}

// TestTransactionShape checks Figures 9/10: SkinnyMine returns the
// largest patterns; ORIGAMI returns a scattered, smaller sample.
func TestTransactionShape(t *testing.T) {
	skipIfShort(t)
	hists, err := RunTransaction(tinyConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	var sk, or int
	for _, h := range hists {
		max := 0
		for s := range h.Sizes {
			if s > max {
				max = s
			}
		}
		switch h.Algo {
		case "SkinnyMine":
			sk = max
		case "ORIGAMI":
			or = max
		}
	}
	if sk < 8 {
		t.Errorf("SkinnyMine largest transaction pattern |V|=%d; should recover injections", sk)
	}
	// At paper scale ORIGAMI's scattered sample misses the large skinny
	// patterns; at test scale its walks can stumble onto one, so assert
	// only that it never exceeds SkinnyMine's recovery.
	if or > sk {
		t.Errorf("ORIGAMI largest %d should not exceed SkinnyMine's %d", or, sk)
	}
	// Figure 10 variant with extra small patterns.
	hists10, err := RunTransaction(tinyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(hists10) != 3 {
		t.Errorf("want 3 histograms, got %d", len(hists10))
	}
}

func TestVsMoSSShape(t *testing.T) {
	skipIfShort(t)
	series, err := RunVsMoSS(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].X) != 5 {
		t.Fatalf("series shape wrong: %+v", series)
	}
}

func TestVsSUBDUEAndSpiderMineShapes(t *testing.T) {
	skipIfShort(t)
	s1, err := RunVsSUBDUE(Config{Seed: 2, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 2 || len(s1[0].X) != 8 {
		t.Fatalf("SUBDUE series shape: %+v", s1)
	}
	s2, err := RunVsSpiderMine(Config{Seed: 2, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2) != 2 || len(s2[0].X) != 7 {
		t.Fatalf("SpiderMine series shape: %+v", s2)
	}
}

func TestScalabilityPoints(t *testing.T) {
	skipIfShort(t)
	pts, err := RunScalability(Config{Seed: 2, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("want 6 points, got %d", len(pts))
	}
	for _, p := range pts {
		if p.DiamMine < 0 || p.LevelGrow < 0 {
			t.Error("stage timings missing")
		}
	}
}

// TestDiameterConstraintShape checks the scale-robust Figure 16/17
// signals: the index serves every l, DiamMine cost tracks the path
// counts, and LevelGrow output covers its seeds (up to the harness
// cap). The paper's decreasing-path-count regime needs the full
// |V|/f ratio and is only visible near paper scale — see
// ARCHITECTURE.md, "Shapes, not times".
func TestDiameterConstraintShape(t *testing.T) {
	skipIfShort(t)
	pts, err := RunDiameterConstraint(Config{Seed: 7, Scale: 0.05}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("too few points: %d", len(pts))
	}
	if pts[0].NumPaths == 0 {
		t.Error("length-2 frequent paths should exist")
	}
	for _, p := range pts {
		// Every seed is itself a result pattern, so output >= #paths —
		// unless the harness output cap bound first.
		if p.NumPattern < p.NumPaths && p.NumPattern < 5000 {
			t.Errorf("l=%d: LevelGrow output %d below its seed count %d", p.L, p.NumPattern, p.NumPaths)
		}
		if p.DiamMine < 0 || p.LevelGrow < 0 {
			t.Error("stage timings missing")
		}
	}
}

// TestSkinninessConstraintShape checks Figures 18/19: the largest
// pattern size is non-decreasing in δ.
func TestSkinninessConstraintShape(t *testing.T) {
	skipIfShort(t)
	pts, err := RunSkinninessConstraint(Config{Seed: 9, Scale: 0.02}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("want 5 points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MaxEdges < pts[i-1].MaxEdges {
			t.Errorf("max pattern size dropped from δ=%d to δ=%d (%d -> %d)",
				pts[i-1].Delta, pts[i].Delta, pts[i-1].MaxEdges, pts[i].MaxEdges)
		}
	}
	if pts[len(pts)-1].MaxEdges <= pts[0].MaxEdges {
		t.Error("relaxing δ should let patterns grow")
	}
}

func TestDBLPExperiment(t *testing.T) {
	skipIfShort(t)
	res, err := RunDBLP(Config{Seed: 11, Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns == 0 {
		t.Fatal("no DBLP patterns found")
	}
	if res.LongestDiam < 8 {
		t.Errorf("longest diameter %d; want the full timeline span", res.LongestDiam)
	}
	if len(res.Examples) == 0 {
		t.Fatal("no examples rendered")
	}
	for _, ex := range res.Examples {
		if !strings.Contains(ex, "support=") {
			t.Errorf("example missing support: %s", ex)
		}
	}
	if res.Runtime <= 0 || res.Runtime > time.Minute {
		t.Errorf("suspicious runtime %v", res.Runtime)
	}
}

func TestWeiboExperiment(t *testing.T) {
	skipIfShort(t)
	res, err := RunWeibo(Config{Seed: 13, Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns == 0 {
		t.Fatal("no Weibo patterns found")
	}
	if res.LongestDiam < 10 {
		t.Errorf("longest diffusion chain %d; want >= 10", res.LongestDiam)
	}
	found := false
	for _, ex := range res.Examples {
		if strings.Contains(ex, "Root") && strings.Contains(ex, "Follower") {
			found = true
		}
	}
	if !found {
		t.Error("expected a diffusion chain mentioning Root and Follower")
	}
}
