package core

import (
	"fmt"

	"skinnymine/internal/graph"
	"skinnymine/internal/support"
)

// Pattern is a graph pattern under growth. By construction its canonical
// diameter occupies pattern vertices 0..DiamLen in order: vertex 0 is the
// head v_H, vertex DiamLen is the tail v_T. Level, DH and DT are the
// paper's per-vertex indices: distance to the diameter (Definition 5) and
// shortest distances to head and tail (Section 3.4).
type Pattern struct {
	G       *graph.Graph
	DiamLen int32
	Level   []int32
	DH, DT  []int32
	Embs    *support.Set

	anchor    extDesc // last extension applied (Panchor, Algorithm 3)
	hasAnchor bool
	codeKey   string // canonical DFS code, set at dedup time
}

// CodeKey returns the pattern's canonical DFS code key (the dedup and
// output-ordering key); empty for patterns never passed through dedup.
func (p *Pattern) CodeKey() string { return p.codeKey }

// Diam returns the canonical diameter as a pattern path (vertices
// 0..DiamLen).
func (p *Pattern) Diam() graph.Path {
	d := make(graph.Path, p.DiamLen+1)
	for i := range d {
		d[i] = graph.V(i)
	}
	return d
}

// DiamSeq returns the label sequence of the canonical diameter.
func (p *Pattern) DiamSeq() []graph.Label {
	seq := make([]graph.Label, p.DiamLen+1)
	for i := range seq {
		seq[i] = p.G.Label(graph.V(i))
	}
	return seq
}

// Support returns the pattern's support (distinct embedding subgraphs,
// the paper's |E[P]|).
func (p *Pattern) Support() int { return p.Embs.Support() }

// MaxLevel returns the largest vertex level (the pattern's skinniness).
func (p *Pattern) MaxLevel() int32 {
	max := int32(0)
	for _, l := range p.Level {
		if l > max {
			max = l
		}
	}
	return max
}

// String renders a short summary.
func (p *Pattern) String() string {
	return fmt.Sprintf("Pattern(|V|=%d,|E|=%d,l=%d,δ=%d,sup=%d)",
		p.G.N(), p.G.M(), p.DiamLen, p.MaxLevel(), p.Support())
}

// newPatternFromPath seeds a Pattern from a frequent path mined by
// DiamMine: the minimal constraint-satisfying pattern whose canonical
// diameter is the path itself. Only oriented embeddings whose label
// sequence matches the canonical sequence become isomorphism maps (a
// palindromic sequence admits both orientations, which is exactly the
// automorphism set the embedding store must keep). Stage I deduplicates
// oriented embeddings exactly, so the maps are distinct, as Set.Add
// requires. keys is the calling worker's subgraph-key scratch.
func newPatternFromPath(pp *PathPattern, graphs []*graph.Graph, maxEmb int, keys *support.Scratch) *Pattern {
	l := pp.Length()
	g := graph.New(l + 1)
	for _, lab := range pp.Seq {
		g.AddVertex(lab)
	}
	for i := 0; i < l; i++ {
		g.MustAddEdge(graph.V(i), graph.V(i+1))
	}
	p := &Pattern{
		G:       g,
		DiamLen: int32(l),
		Level:   make([]int32, l+1),
		DH:      make([]int32, l+1),
		DT:      make([]int32, l+1),
	}
	for i := 0; i <= l; i++ {
		p.DH[i] = int32(i)
		p.DT[i] = int32(l - i)
	}
	p.Embs = support.NewSet(g.Edges(), maxEmb)
	for _, e := range pp.Embs {
		if labelSeqMatches(graphs[e.GID], e.Seq, pp.Seq) {
			p.Embs.Add(support.Embedding{GID: e.GID, Map: e.Seq}, keys)
		}
	}
	return p
}

func labelSeqMatches(g *graph.Graph, seq graph.Path, want []graph.Label) bool {
	if len(seq) != len(want) {
		return false
	}
	for i, v := range seq {
		if g.Label(v) != want[i] {
			return false
		}
	}
	return true
}

// extDesc identifies one candidate extension of a pattern: either a
// backward edge between two existing pattern vertices (kind 0) or a
// forward edge attaching a fresh vertex with the given label (kind 1).
// Descriptors order totally; each pattern only extends with descriptors
// >= its anchor, which forces a single generation order per pattern
// within a canonical-diameter cluster.
type extDesc struct {
	kind  int8 // 0 backward, 1 forward
	src   int32
	dst   int32 // backward: other endpoint (src < dst); forward: -1
	label graph.Label
}

func (d extDesc) String() string {
	if d.kind == 0 {
		return fmt.Sprintf("back(%d,%d)", d.src, d.dst)
	}
	return fmt.Sprintf("fwd(%d)+label%d", d.src, d.label)
}

// compareDesc orders extension descriptors: backward edges before
// forward, then by source, destination, and label.
func compareDesc(a, b extDesc) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	if a.src != b.src {
		if a.src < b.src {
			return -1
		}
		return 1
	}
	if a.dst != b.dst {
		if a.dst < b.dst {
			return -1
		}
		return 1
	}
	if a.label != b.label {
		if a.label < b.label {
			return -1
		}
		return 1
	}
	return 0
}
