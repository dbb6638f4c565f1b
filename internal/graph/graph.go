package graph

import (
	"fmt"
	"sort"
)

// V is a vertex identifier within a single graph.
type V = int32

// Label is an interned vertex label. Labels order lexicographically by
// their integer value; LabelTable interns strings in first-seen order, so
// callers that need the paper's lexicographic label order should intern
// labels in sorted order (synthetic generators use integer labels, where
// the numeric order is the lexicographic order).
type Label int32

// Edge is an undirected edge between two vertices. Normalized edges have
// U <= W.
type Edge struct {
	U, W V
}

// Norm returns the edge with endpoints ordered U <= W.
func (e Edge) Norm() Edge {
	if e.U > e.W {
		return Edge{e.W, e.U}
	}
	return e
}

// Graph is an undirected vertex-labeled graph with dense vertex IDs.
// The zero value is an empty graph ready to use via AddVertex/AddEdge.
type Graph struct {
	labels []Label
	adj    [][]V
	m      int // number of edges
	arcs   []V // backing array of adj when laid out by Clone or CopyTo
}

// New returns an empty graph with capacity hints for n vertices.
func New(n int) *Graph {
	return &Graph{
		labels: make([]Label, 0, n),
		adj:    make([][]V, 0, n),
	}
}

// Clone returns a deep copy of g. All adjacency lists share one
// backing array, each capped at its length, so a clone costs three
// allocations whatever its size and appending to one list of the copy
// never writes into another.
func (g *Graph) Clone() *Graph {
	c := &Graph{labels: make([]Label, 0, len(g.labels))}
	g.copyInto(c, 0)
	return c
}

// CopyTo makes dst a copy of g, reusing dst's buffers. Every adjacency
// list of the copy keeps one slot of spare capacity and the copy has
// room for one more vertex, so growing it by one vertex and one edge —
// a Stage II extension tried on a scratch graph — allocates nothing
// once dst has grown to size. dst must not share storage with a graph
// still in use.
func (g *Graph) CopyTo(dst *Graph) { g.copyInto(dst, 1) }

// copyInto overwrites dst with g, laying every adjacency list out in
// dst.arcs with spare extra slots of capacity; with spare > 0 it also
// reserves an empty list for one more vertex, which AddVertex picks up.
func (g *Graph) copyInto(dst *Graph, spare int) {
	n := len(g.adj)
	dst.labels = append(dst.labels[:0], g.labels...)
	dst.m = g.m
	size := 2*g.m + (n+1)*spare // n lists and the next vertex's, each with spare slots
	if cap(dst.arcs) < size {
		dst.arcs = make([]V, size)
	}
	arcs := dst.arcs[:size]
	if cap(dst.adj) < n+spare {
		dst.adj = make([][]V, n, n+spare)
	}
	dst.adj = dst.adj[:n]
	off := 0
	for i, nb := range g.adj {
		end := off + len(nb)
		copy(arcs[off:end], nb)
		dst.adj[i] = arcs[off : end : end+spare]
		off = end + spare
	}
	// Slots past the last vertex may hold lists of an earlier, larger
	// copy that alias arcs; AddVertex would reuse them.
	tail := dst.adj[n:cap(dst.adj)]
	clear(tail)
	if spare > 0 {
		tail[0] = arcs[off : off : off+spare]
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.labels) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Label returns the label of vertex v.
func (g *Graph) Label(v V) Label { return g.labels[v] }

// Labels returns the label slice indexed by vertex ID. Callers must not
// modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Neighbors returns the sorted adjacency list of v. Callers must not
// modify it.
func (g *Graph) Neighbors(v V) []V { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v V) int { return len(g.adj[v]) }

// AddVertex appends a vertex with the given label and returns its ID.
func (g *Graph) AddVertex(l Label) V {
	g.labels = append(g.labels, l)
	if n := len(g.adj); n < cap(g.adj) {
		// Reuse the slot's storage: a list CopyTo reserved, or nil.
		g.adj = g.adj[:n+1]
		g.adj[n] = g.adj[n][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	return V(len(g.labels) - 1)
}

// HasEdge reports whether the undirected edge (u,w) exists.
func (g *Graph) HasEdge(u, w V) bool {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
	return i < len(nb) && nb[i] == w
}

// AddEdge inserts the undirected edge (u,w). It returns an error for
// self-loops, out-of-range vertices, or duplicate edges.
func (g *Graph) AddEdge(u, w V) error {
	if u == w {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	n := V(g.N())
	if u < 0 || u >= n || w < 0 || w >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, w, n)
	}
	if g.HasEdge(u, w) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, w)
	}
	g.insertArc(u, w)
	g.insertArc(w, u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge that panics on error; for tests and generators
// that construct graphs programmatically.
func (g *Graph) MustAddEdge(u, w V) {
	if err := g.AddEdge(u, w); err != nil {
		panic(err)
	}
}

func (g *Graph) insertArc(u, w V) {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
	nb = append(nb, 0)
	copy(nb[i+1:], nb[i:])
	nb[i] = w
	g.adj[u] = nb
}

// RemoveEdge deletes the undirected edge (u,w) if present and reports
// whether it existed.
func (g *Graph) RemoveEdge(u, w V) bool {
	if !g.HasEdge(u, w) {
		return false
	}
	g.removeArc(u, w)
	g.removeArc(w, u)
	g.m--
	return true
}

func (g *Graph) removeArc(u, w V) {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
	g.adj[u] = append(nb[:i], nb[i+1:]...)
}

// Edges returns all edges normalized (U <= W) in sorted order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := V(0); int(u) < g.N(); u++ {
		for _, w := range g.adj[u] {
			if u < w {
				es = append(es, Edge{u, w})
			}
		}
	}
	return es
}

// Connected reports whether g is connected (the empty graph is connected).
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	queue := []V{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n
}

// LabelTable interns string labels to dense Label values. The zero value
// is ready to use.
type LabelTable struct {
	byName map[string]Label
	names  []string
}

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable {
	return &LabelTable{byName: make(map[string]Label)}
}

// Intern returns the Label for name, assigning the next ID if new.
func (t *LabelTable) Intern(name string) Label {
	if t.byName == nil {
		t.byName = make(map[string]Label)
	}
	if l, ok := t.byName[name]; ok {
		return l
	}
	l := Label(len(t.names))
	t.byName[name] = l
	t.names = append(t.names, name)
	return l
}

// Lookup returns the Label interned for name without interning it,
// reporting whether the name is known.
func (t *LabelTable) Lookup(name string) (Label, bool) {
	l, ok := t.byName[name]
	return l, ok
}

// Name returns the string for l, or a numeric fallback if unknown.
func (t *LabelTable) Name(l Label) string {
	if t == nil || int(l) < 0 || int(l) >= len(t.names) {
		return fmt.Sprintf("L%d", int(l))
	}
	return t.names[l]
}

// Len returns the number of interned labels.
func (t *LabelTable) Len() int { return len(t.names) }

// Names returns the interned label strings indexed by Label value.
// Callers must not modify the returned slice.
func (t *LabelTable) Names() []string { return t.names }
