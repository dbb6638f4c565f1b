package dfscode

import (
	"fmt"
	"slices"
	"strconv"

	"skinnymine/internal/graph"
)

// MinCode computes the minimal (canonical) DFS code of a connected
// labeled graph: the lexicographically smallest DFS code over all DFS
// traversals. Two connected graphs are isomorphic iff their minimal
// codes are equal.
func MinCode(g *graph.Graph) Code {
	var c Canonicalizer
	return c.Code(g)
}

// MinCodeKey returns a canonical string key for any graph, including
// edgeless single-vertex graphs (which minimal DFS codes cannot encode).
func MinCodeKey(g *graph.Graph) string {
	var c Canonicalizer
	return string(c.Key(g))
}

// IsMin reports whether code is the minimal DFS code of the graph it
// describes.
func IsMin(code Code) bool {
	if len(code) == 0 {
		return true
	}
	return Compare(MinCode(code.Graph()), code) == 0
}

// Canonicalizer computes minimal DFS codes and their keys, reusing its
// storage from call to call, so canonicalizing a stream of small graphs
// allocates only while its buffers grow. The zero value is ready to
// use. A Canonicalizer is not safe for concurrent use; the mining
// engine keeps one per Stage II worker.
//
// The construction is the standard stepwise greedy with embedding
// projection: keep every partial DFS traversal realizing the minimal
// code prefix; at each step pick the smallest extension tuple offered
// by any surviving traversal and drop traversals that cannot realize
// it. The backward-before-forward and deepest-forward-first extension
// order guarantees no surviving traversal strands an uncoverable edge,
// so the greedy prefix is always completable.
//
// Every surviving traversal realizes the same code prefix, so the
// rightmost path (a function of the prefix's forward tuples) and the
// number of mapped code vertices are shared. Per traversal only three
// flat rows remain: code vertex -> graph vertex, graph vertex -> code
// vertex, and a bitset of covered edges. The rows of one step live in
// one slab and each step writes its survivors into a second slab, which
// then swaps with the first.
type Canonicalizer struct {
	g       *graph.Graph
	n       int     // vertices of g: the stride of the vertex rows
	words   int     // bitset words per traversal
	edgeIdx []int32 // n×n: index of edge (u,w), -1 when absent

	cur, next slab
	nv        int32   // code vertices mapped so far
	rmp       []int32 // rightmost path, root first, as code vertices
	onRMP     []bool  // per code vertex: lies on rmp

	code Code
	key  []byte
}

// slab holds k partial traversals as fixed-stride rows.
type slab struct {
	k    int
	vmap []graph.V // row i: vmap[i*n : i*n+nv], code vertex -> graph vertex
	vinv []int32   // row i: vinv[i*n : (i+1)*n], graph vertex -> code vertex or -1
	used []uint64  // row i: used[i*words : (i+1)*words], covered edges
}

// Code returns the minimal DFS code of the connected graph g (nil for
// an edgeless graph). The returned code aliases the Canonicalizer and
// is valid until its next call.
func (c *Canonicalizer) Code(g *graph.Graph) Code {
	c.code = c.code[:0]
	m := g.M()
	if m == 0 {
		return nil
	}
	c.reset(g)
	// Seed: minimal (l0, l1) over both orientations of every edge, then
	// one traversal per orientation realizing it.
	first := Tuple{I: 0, J: 1}
	haveFirst := false
	for u := graph.V(0); int(u) < c.n; u++ {
		for _, w := range g.Neighbors(u) {
			t := Tuple{I: 0, J: 1, LI: g.Label(u), LJ: g.Label(w)}
			if !haveFirst || CompareTuples(t, first) < 0 {
				first, haveFirst = t, true
			}
		}
	}
	for u := graph.V(0); int(u) < c.n; u++ {
		if g.Label(u) != first.LI {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if g.Label(w) != first.LJ {
				continue
			}
			i := c.push(&c.cur)
			vinv := c.cur.vinv[i*c.n : (i+1)*c.n]
			for j := range vinv {
				vinv[j] = -1
			}
			vinv[u], vinv[w] = 0, 1
			c.cur.vmap[i*c.n], c.cur.vmap[i*c.n+1] = u, w
			clear(c.cur.used[i*c.words : (i+1)*c.words])
			c.mark(&c.cur, i, u, w)
		}
	}
	c.code = append(c.code, first)
	c.nv = 2
	c.setRMP(append(c.rmp[:0], 0, 1))

	for len(c.code) < m {
		best, ok := c.minExtension()
		if !ok {
			// Cannot happen for connected graphs; guard for safety.
			//lint:allow hotalloc panic guard, unreachable for connected graphs
			panic(fmt.Sprintf("dfscode: no extension at step %d of %d", len(c.code), m))
		}
		c.next.k = 0
		for i := 0; i < c.cur.k; i++ {
			c.realize(i, best)
		}
		c.cur, c.next = c.next, c.cur
		if best.Forward() {
			keep := slices.Index(c.rmp, best.I) + 1
			c.setRMP(append(c.rmp[:keep], best.J))
			c.nv++
		}
		c.code = append(c.code, best)
	}
	return c.code
}

// Key returns the canonical key bytes of g, the bytes of MinCodeKey.
// The returned slice aliases the Canonicalizer and is valid until its
// next call.
func (c *Canonicalizer) Key(g *graph.Graph) []byte {
	c.key = c.key[:0]
	if g.M() == 0 {
		if g.N() == 0 {
			c.key = append(c.key, "empty"...)
			return c.key
		}
		// Edgeless patterns in this project are single vertices.
		min := g.Label(0)
		for v := 1; v < g.N(); v++ {
			if g.Label(graph.V(v)) < min {
				min = g.Label(graph.V(v))
			}
		}
		c.key = append(c.key, 'v')
		c.key = strconv.AppendInt(c.key, int64(min), 10)
		c.key = append(c.key, '/')
		c.key = strconv.AppendInt(c.key, int64(g.N()), 10)
		return c.key
	}
	c.key = appendKey(c.key, c.Code(g))
	return c.key
}

// reset sizes the per-graph tables for g and empties both slabs.
func (c *Canonicalizer) reset(g *graph.Graph) {
	c.g, c.n = g, g.N()
	c.words = (g.M() + 63) / 64
	c.edgeIdx = resize(c.edgeIdx, c.n*c.n)
	for i := range c.edgeIdx {
		c.edgeIdx[i] = -1
	}
	idx := int32(0)
	for u := graph.V(0); int(u) < c.n; u++ {
		for _, w := range g.Neighbors(u) {
			if u < w {
				c.edgeIdx[int(u)*c.n+int(w)] = idx
				c.edgeIdx[int(w)*c.n+int(u)] = idx
				idx++
			}
		}
	}
	c.onRMP = resize(c.onRMP, c.n)
	c.cur.k, c.next.k = 0, 0
}

// setRMP installs the rightmost path shared by every traversal.
func (c *Canonicalizer) setRMP(rmp []int32) {
	c.rmp = rmp
	clear(c.onRMP)
	for _, ci := range rmp {
		c.onRMP[ci] = true
	}
}

// push appends an uninitialized row to s and returns its index.
func (c *Canonicalizer) push(s *slab) int {
	i := s.k
	s.k++
	s.vmap = resize(s.vmap, s.k*c.n)
	s.vinv = resize(s.vinv, s.k*c.n)
	s.used = resize(s.used, s.k*c.words)
	return i
}

func (c *Canonicalizer) mark(s *slab, i int, u, w graph.V) {
	e := c.edgeIdx[int(u)*c.n+int(w)]
	s.used[i*c.words+int(e>>6)] |= 1 << (uint(e) & 63)
}

func (c *Canonicalizer) isUsed(s *slab, i int, u, w graph.V) bool {
	e := c.edgeIdx[int(u)*c.n+int(w)]
	return s.used[i*c.words+int(e>>6)]&(1<<(uint(e)&63)) != 0
}

// minExtension returns the smallest extension tuple any current
// traversal can make: backward edges from the rightmost vertex to
// rightmost-path vertices, and forward edges from rightmost-path
// vertices to unmapped neighbors.
func (c *Canonicalizer) minExtension() (Tuple, bool) {
	g, n := c.g, c.n
	r := c.rmp[len(c.rmp)-1]
	var best Tuple
	haveBest := false
	consider := func(t Tuple) {
		if !haveBest || CompareTuples(t, best) < 0 {
			best, haveBest = t, true
		}
	}
	for i := 0; i < c.cur.k; i++ {
		vmap, vinv := c.cur.vmap[i*n:], c.cur.vinv[i*n:(i+1)*n]
		rv := vmap[r]
		for _, w := range g.Neighbors(rv) {
			if ci := vinv[w]; ci >= 0 && ci < r && c.onRMP[ci] && !c.isUsed(&c.cur, i, rv, w) {
				consider(Tuple{I: r, J: ci, LI: g.Label(rv), LJ: g.Label(w)})
			}
		}
	}
	if haveBest {
		// A backward tuple (r, j) orders before every forward tuple
		// (i, nv), since r < nv.
		return best, true
	}
	for i := 0; i < c.cur.k; i++ {
		vmap, vinv := c.cur.vmap[i*n:], c.cur.vinv[i*n:(i+1)*n]
		for _, ci := range c.rmp {
			cv := vmap[ci]
			for _, w := range g.Neighbors(cv) {
				if vinv[w] < 0 {
					consider(Tuple{I: ci, J: c.nv, LI: g.Label(cv), LJ: g.Label(w)})
				}
			}
		}
	}
	return best, haveBest
}

// realize appends to c.next every extension of traversal i by tuple t:
// at most one for a backward tuple, one per fitting unmapped neighbor
// for a forward tuple.
func (c *Canonicalizer) realize(i int, t Tuple) {
	g, n := c.g, c.n
	vmap, vinv := c.cur.vmap[i*n:], c.cur.vinv[i*n:(i+1)*n]
	if !t.Forward() {
		rv, wv := vmap[t.I], vmap[t.J]
		if c.edgeIdx[int(rv)*n+int(wv)] < 0 || c.isUsed(&c.cur, i, rv, wv) ||
			g.Label(rv) != t.LI || g.Label(wv) != t.LJ {
			return
		}
		j := c.copyRow(i)
		c.mark(&c.next, j, rv, wv)
		return
	}
	src := vmap[t.I]
	if g.Label(src) != t.LI {
		return
	}
	for _, w := range g.Neighbors(src) {
		if vinv[w] >= 0 || g.Label(w) != t.LJ {
			continue
		}
		j := c.copyRow(i)
		c.next.vmap[j*n+int(t.J)] = w
		c.next.vinv[j*n+int(w)] = t.J
		c.mark(&c.next, j, src, w)
	}
}

// copyRow copies traversal i of c.cur into a new row of c.next.
func (c *Canonicalizer) copyRow(i int) int {
	n, w := c.n, c.words
	j := c.push(&c.next)
	copy(c.next.vmap[j*n:j*n+int(c.nv)], c.cur.vmap[i*n:i*n+int(c.nv)])
	copy(c.next.vinv[j*n:(j+1)*n], c.cur.vinv[i*n:(i+1)*n])
	copy(c.next.used[j*w:(j+1)*w], c.cur.used[i*w:(i+1)*w])
	return j
}

// resize returns b with length n, keeping its first len(b) elements
// when it has to grow.
func resize[T any](b []T, n int) []T {
	if n > cap(b) {
		b = slices.Grow(b, n-len(b))
	}
	return b[:n]
}
