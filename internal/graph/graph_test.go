package graph

import (
	"slices"
	"strings"
	"testing"
)

func buildPath(labels ...Label) *Graph {
	g := New(len(labels))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(V(i-1), V(i))
	}
	return g
}

func TestAddVertexAndEdge(t *testing.T) {
	g := New(4)
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	c := g.AddVertex(3)
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Error("HasEdge(a,b) should hold both ways")
	}
	if g.HasEdge(a, c) {
		t.Error("HasEdge(a,c) should be false")
	}
	if g.Degree(b) != 2 || g.Degree(a) != 1 {
		t.Errorf("degrees: a=%d b=%d", g.Degree(a), g.Degree(b))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	a := g.AddVertex(0)
	b := g.AddVertex(1)
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self-loop should fail")
	}
	if err := g.AddEdge(a, 99); err == nil {
		t.Error("out-of-range should fail")
	}
	if err := g.AddEdge(-1, b); err == nil {
		t.Error("negative vertex should fail")
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(b, a); err == nil {
		t.Error("duplicate edge should fail")
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := buildPath(0, 1, 2)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge existing returned false")
	}
	if g.M() != 1 || g.HasEdge(0, 1) {
		t.Error("edge (0,1) still present")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge missing returned true")
	}
}

func TestEdgesSortedNormalized(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(Label(i))
	}
	g.MustAddEdge(3, 1)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(0, 1)
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("edges = %v, want %v", es, want)
	}
	for i := range es {
		if es[i] != want[i] {
			t.Errorf("edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildPath(0, 1, 2)
	c := g.Clone()
	c.AddVertex(9)
	c.MustAddEdge(2, 3)
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("clone mutated original: N=%d M=%d", g.N(), g.M())
	}
	if c.N() != 4 || c.M() != 3 {
		t.Errorf("clone wrong: N=%d M=%d", c.N(), c.M())
	}
}

// sameGraph reports whether a and b have equal labels and adjacency.
func sameGraph(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := V(0); int(v) < a.N(); v++ {
		if a.Label(v) != b.Label(v) || !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

// TestCloneListsDoNotShareCapacity pins the single-backing-array
// layout of Clone: each list is capped at its length, so growing one
// list of the clone cannot overwrite its neighbor's.
func TestCloneListsDoNotShareCapacity(t *testing.T) {
	g := buildPath(0, 1, 2, 3)
	c := g.Clone()
	for v := V(0); int(v) < c.N(); v++ {
		if nb := c.Neighbors(v); cap(nb) != len(nb) {
			t.Fatalf("vertex %d: list len %d cap %d, want capped", v, len(nb), cap(nb))
		}
	}
	c.MustAddEdge(0, 2)
	c.MustAddEdge(1, 3)
	want := buildPath(0, 1, 2, 3)
	want.MustAddEdge(0, 2)
	want.MustAddEdge(1, 3)
	if !sameGraph(c, want) {
		t.Error("adding edges to a clone corrupted its adjacency lists")
	}
	if !sameGraph(g, buildPath(0, 1, 2, 3)) {
		t.Error("adding edges to a clone changed the original")
	}
}

// TestCopyToReuse checks CopyTo into a destination that held larger
// and smaller graphs before: the copy must equal the source, growing it
// by a vertex and an edge must match the same growth on a clone, and
// that growth must not allocate once the destination has its size.
func TestCopyToReuse(t *testing.T) {
	big := buildPath(0, 1, 2, 3, 4, 5, 6)
	big.MustAddEdge(0, 6)
	small := buildPath(3, 1, 2)
	var dst Graph
	for _, src := range []*Graph{big, small, big, small} {
		src.CopyTo(&dst)
		if !sameGraph(&dst, src) {
			t.Fatal("CopyTo result differs from its source")
		}
		want := src.Clone()
		u := want.AddVertex(7)
		want.MustAddEdge(1, u)
		want.MustAddEdge(0, 2)
		u = dst.AddVertex(7)
		dst.MustAddEdge(1, u)
		dst.MustAddEdge(0, 2)
		if !sameGraph(&dst, want) {
			t.Fatal("growing a CopyTo result differs from growing a clone")
		}
		if src.N() == 7 && src.M() != 7 || src.N() == 3 && src.M() != 2 {
			t.Fatal("growing a CopyTo result changed its source")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		big.CopyTo(&dst)
		u := dst.AddVertex(7)
		dst.MustAddEdge(3, u)
	})
	if allocs != 0 {
		t.Errorf("CopyTo plus one forward edge: %.1f allocs, want 0", allocs)
	}
}

func TestConnected(t *testing.T) {
	g := buildPath(0, 1, 2)
	if !g.Connected() {
		t.Error("path should be connected")
	}
	g.AddVertex(5)
	if g.Connected() {
		t.Error("isolated vertex should disconnect")
	}
	empty := New(0)
	if !empty.Connected() {
		t.Error("empty graph counts as connected")
	}
}

func TestLabelTable(t *testing.T) {
	lt := NewLabelTable()
	a := lt.Intern("alpha")
	b := lt.Intern("beta")
	if a == b {
		t.Error("distinct names interned to same label")
	}
	if lt.Intern("alpha") != a {
		t.Error("re-intern changed label")
	}
	if lt.Name(a) != "alpha" || lt.Name(b) != "beta" {
		t.Errorf("names: %q %q", lt.Name(a), lt.Name(b))
	}
	if lt.Len() != 2 {
		t.Errorf("Len = %d, want 2", lt.Len())
	}
	if got := lt.Name(Label(99)); !strings.HasPrefix(got, "L") {
		t.Errorf("unknown label name = %q", got)
	}
	var zero LabelTable
	if zero.Intern("x") != 0 {
		t.Error("zero-value table should work")
	}
}

func TestString(t *testing.T) {
	g := buildPath(0, 1)
	if got := g.String(); got != "G(|V|=2,|E|=1)" {
		t.Errorf("String = %q", got)
	}
}
