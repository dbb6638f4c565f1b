package dfscode

import (
	"fmt"

	"skinnymine/internal/graph"
)

// Tuple is one DFS-code edge (i, j, l_i, l_j). Forward edges have J == I+?
// (J greater than every earlier index); backward edges have J < I. Vertex
// labels are carried redundantly so tuples compare without context.
type Tuple struct {
	I, J   int32
	LI, LJ graph.Label
}

// Forward reports whether the tuple introduces a new vertex.
func (t Tuple) Forward() bool { return t.J > t.I }

func (t Tuple) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", t.I, t.J, t.LI, t.LJ)
}

// CompareTuples orders tuples by the DFS lexicographic order of the gSpan
// paper. It returns -1, 0, or +1.
func CompareTuples(a, b Tuple) int {
	af, bf := a.Forward(), b.Forward()
	switch {
	case af && bf:
		if a.J != b.J {
			return cmpI32(a.J, b.J)
		}
		if a.I != b.I {
			return cmpI32(b.I, a.I) // larger I (deeper source) is smaller
		}
	case !af && !bf:
		if a.I != b.I {
			return cmpI32(a.I, b.I)
		}
		if a.J != b.J {
			return cmpI32(a.J, b.J)
		}
	case af && !bf: // a forward, b backward: a < b iff a.J <= b.I
		if a.J <= b.I {
			return -1
		}
		return 1
	default: // a backward, b forward: a < b iff a.I < b.J
		if a.I < b.J {
			return -1
		}
		return 1
	}
	if a.LI != b.LI {
		return cmpI32(int32(a.LI), int32(b.LI))
	}
	return cmpI32(int32(a.LJ), int32(b.LJ))
}

func cmpI32(a, b int32) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Code is a sequence of DFS-code tuples.
type Code []Tuple

// Compare orders codes lexicographically tuple-by-tuple; a proper prefix
// orders before its extensions.
func Compare(a, b Code) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := CompareTuples(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// VertexCount returns the number of code vertices.
func (c Code) VertexCount() int {
	max := int32(-1)
	for _, t := range c {
		if t.I > max {
			max = t.I
		}
		if t.J > max {
			max = t.J
		}
	}
	return int(max) + 1
}

// Key encodes the code as a comparable string.
func (c Code) Key() string { return string(appendKey(nil, c)) }

// appendKey appends the key bytes of c to dst: each tuple as four
// little-endian int32s (I, J, LI, LJ).
func appendKey(dst []byte, c Code) []byte {
	for _, t := range c {
		for _, v := range [4]int32{t.I, t.J, int32(t.LI), int32(t.LJ)} {
			dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	}
	return dst
}

// Graph reconstructs the pattern graph a code describes.
func (c Code) Graph() *graph.Graph {
	g := graph.New(c.VertexCount())
	for _, t := range c {
		for int32(g.N()) <= t.I || int32(g.N()) <= t.J {
			g.AddVertex(0) // placeholder, fixed below
		}
	}
	labels := make([]graph.Label, g.N())
	for _, t := range c {
		labels[t.I] = t.LI
		labels[t.J] = t.LJ
	}
	g2 := graph.New(len(labels))
	for _, l := range labels {
		g2.AddVertex(l)
	}
	for _, t := range c {
		g2.MustAddEdge(graph.V(t.I), graph.V(t.J))
	}
	return g2
}

// RightmostPath returns the code-vertex indices of the rightmost path
// (root first) of a valid code.
func (c Code) RightmostPath() []int32 {
	if len(c) == 0 {
		return nil
	}
	// The rightmost vertex is the target of the last forward edge; walk
	// parents back via forward edges.
	parent := map[int32]int32{}
	rightmost := int32(0)
	for _, t := range c {
		if t.Forward() {
			parent[t.J] = t.I
			rightmost = t.J
		}
	}
	var rev []int32
	for v := rightmost; ; {
		rev = append(rev, v)
		p, ok := parent[v]
		if !ok {
			break
		}
		v = p
	}
	rmp := make([]int32, len(rev))
	for i, v := range rev {
		rmp[len(rev)-1-i] = v
	}
	return rmp
}
