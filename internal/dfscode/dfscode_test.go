package dfscode

import (
	"math/rand"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

func TestCompareTuplesBasics(t *testing.T) {
	fwd := func(i, j int32, li, lj graph.Label) Tuple { return Tuple{I: i, J: j, LI: li, LJ: lj} }
	cases := []struct {
		name string
		a, b Tuple
		want int
	}{
		{"forward smaller target", fwd(0, 1, 0, 0), fwd(1, 2, 0, 0), -1},
		{"forward deeper source first", fwd(2, 3, 0, 0), fwd(1, 3, 0, 0), -1},
		{"forward label break", fwd(0, 1, 0, 1), fwd(0, 1, 0, 2), -1},
		{"backward smaller target", fwd(2, 0, 0, 0), fwd(2, 1, 0, 0), -1},
		{"backward before forward same vertex", fwd(2, 0, 0, 0), fwd(2, 3, 0, 0), -1},
		{"forward before later backward", fwd(1, 2, 0, 0), fwd(2, 0, 0, 0), -1},
		{"equal", fwd(0, 1, 3, 4), fwd(0, 1, 3, 4), 0},
	}
	for _, c := range cases {
		if got := CompareTuples(c.a, c.b); got != c.want {
			t.Errorf("%s: CompareTuples(%v,%v) = %d, want %d", c.name, c.a, c.b, got, c.want)
		}
		if got := CompareTuples(c.b, c.a); got != -c.want {
			t.Errorf("%s: reverse = %d, want %d", c.name, got, -c.want)
		}
	}
}

func TestMinCodePath(t *testing.T) {
	g := testutil.PathGraph(2, 1, 0)
	code := MinCode(g)
	if len(code) != 2 {
		t.Fatalf("code length %d, want 2", len(code))
	}
	if code[0].LI != 0 || code[0].LJ != 1 {
		t.Errorf("first tuple %v should start at the smallest label pair", code[0])
	}
}

func TestMinCodeInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		g := testutil.RandomConnectedGraph(rng, 2+rng.Intn(8), rng.Intn(5), 3)
		h, _ := testutil.PermuteGraph(rng, g)
		if MinCode(g).Key() != MinCode(h).Key() {
			t.Fatalf("trial %d: permuted copy has different min code\nlabels=%v edges=%v",
				trial, g.Labels(), g.Edges())
		}
	}
}

func TestMinCodeEqualityMatchesIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		a := testutil.RandomConnectedGraph(rng, 2+rng.Intn(6), rng.Intn(4), 2)
		b := testutil.RandomConnectedGraph(rng, 2+rng.Intn(6), rng.Intn(4), 2)
		iso := graph.Isomorphic(a, b)
		same := MinCode(a).Key() == MinCode(b).Key()
		if iso != same {
			t.Fatalf("trial %d: Isomorphic=%v but code equality=%v\nA: %v %v\nB: %v %v",
				trial, iso, same, a.Labels(), a.Edges(), b.Labels(), b.Edges())
		}
	}
}

func TestMinCodeGraphRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		g := testutil.RandomConnectedGraph(rng, 2+rng.Intn(7), rng.Intn(4), 3)
		code := MinCode(g)
		back := code.Graph()
		if !graph.Isomorphic(g, back) {
			t.Fatalf("trial %d: code.Graph() not isomorphic to original", trial)
		}
		if Compare(MinCode(back), code) != 0 {
			t.Fatalf("trial %d: min code of reconstruction differs", trial)
		}
		if !IsMin(code) {
			t.Fatalf("trial %d: MinCode output fails IsMin", trial)
		}
	}
}

func TestIsMinRejectsNonMinimal(t *testing.T) {
	// Triangle with labels 0,0,1: a code starting at the (1,0) orientation
	// of an edge is not minimal.
	bad := Code{
		{I: 0, J: 1, LI: 1, LJ: 0},
		{I: 1, J: 2, LI: 0, LJ: 0},
		{I: 2, J: 0, LI: 0, LJ: 1},
	}
	if IsMin(bad) {
		t.Error("code starting at label 1 should not be minimal")
	}
}

func TestCodeKeyDistinct(t *testing.T) {
	a := MinCode(testutil.PathGraph(0, 1, 2))
	b := MinCode(testutil.PathGraph(0, 2, 1))
	if a.Key() == b.Key() {
		t.Error("non-isomorphic paths share a key")
	}
}

func TestMinCodeKeyEdgeless(t *testing.T) {
	g := graph.New(1)
	g.AddVertex(7)
	h := graph.New(1)
	h.AddVertex(8)
	if MinCodeKey(g) == MinCodeKey(h) {
		t.Error("different single-vertex labels must key differently")
	}
	if MinCodeKey(graph.New(0)) != "empty" {
		t.Error("empty graph key")
	}
}

func TestVertexCountAndRightmostPath(t *testing.T) {
	g := testutil.PathGraph(0, 0, 0, 0)
	code := MinCode(g)
	if code.VertexCount() != 4 {
		t.Errorf("VertexCount = %d, want 4", code.VertexCount())
	}
	rmp := code.RightmostPath()
	if len(rmp) != 4 || rmp[0] != 0 || rmp[3] != 3 {
		t.Errorf("RightmostPath = %v", rmp)
	}
	if got := Code(nil).RightmostPath(); got != nil {
		t.Errorf("empty code rightmost path = %v", got)
	}
}

func TestCompareCodesPrefix(t *testing.T) {
	a := Code{{I: 0, J: 1, LI: 0, LJ: 0}}
	b := Code{{I: 0, J: 1, LI: 0, LJ: 0}, {I: 1, J: 2, LI: 0, LJ: 0}}
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
		t.Error("prefix ordering wrong")
	}
}

// TestCanonicalizerReuse runs one Canonicalizer over graphs of
// shuffled sizes, edgeless ones included: no state may leak from one
// call into the next, so every key must equal a fresh MinCodeKey.
func TestCanonicalizerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c Canonicalizer
	for i := 0; i < 500; i++ {
		var g *graph.Graph
		if i%50 == 0 {
			g = graph.New(1)
			g.AddVertex(graph.Label(i % 3))
		} else {
			n := 2 + rng.Intn(14)
			g = testutil.RandomConnectedGraph(rng, n, rng.Intn(2*n), 1+rng.Intn(3))
		}
		if got, want := string(c.Key(g)), MinCodeKey(g); got != want {
			t.Fatalf("graph %d (n=%d m=%d): reused key differs from a fresh one", i, g.N(), g.M())
		}
		if g.M() > 0 && Compare(c.Code(g), MinCode(g)) != 0 {
			t.Fatalf("graph %d: reused code differs from a fresh one", i)
		}
	}
}

// TestCanonicalizerSteadyStateAllocs pins the point of the reusable
// canonicalizer: once its buffers have grown, keying a graph allocates
// nothing.
func TestCanonicalizerSteadyStateAllocs(t *testing.T) {
	g := testutil.CycleGraph(0, 0, 1, 0, 0, 1)
	g.MustAddEdge(0, 3)
	var c Canonicalizer
	c.Key(g)
	if allocs := testing.AllocsPerRun(50, func() { c.Key(g) }); allocs != 0 {
		t.Errorf("Key on a warm Canonicalizer: %.1f allocs, want 0", allocs)
	}
}
