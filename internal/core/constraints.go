package core

import (
	"slices"

	"skinnymine/internal/graph"
)

// Canonical-diameter maintenance (Section 3.3–3.4). Growing a pattern P
// with canonical diameter L to P' must keep L the canonical diameter
// (Loop Invariant 1), which Lemma 1 decomposes into:
//
//	Constraint I   — the diameter does not increase;
//	Constraint II  — L still realizes the shortest v_H–v_T distance;
//	Constraint III — L <= L' for any newly created same-length diameter.
//
// CheckFast implements the paper's index-based conditions (Theorems 1–3)
// with two per-vertex distances D_H and D_T; the lexicographic test of
// Constraint III runs a frontier sweep inside the (small) pattern only
// when the Theorem-3 trigger fires. CheckNaive recomputes the canonical
// diameter of P' from scratch (the "highly inefficient" baseline the
// paper argues against); CheckVerify runs both and records mismatches.

// CheckMode selects the constraint-maintenance implementation.
type CheckMode int

const (
	// CheckFast uses the paper's D_H/D_T index conditions.
	CheckFast CheckMode = iota
	// CheckNaive recomputes the canonical diameter after each extension.
	CheckNaive
	// CheckVerify runs both, records disagreements in Stats, and trusts
	// the naive answer. Used by tests and the verification bench.
	CheckVerify
)

// rejectReason says which constraint failed (for stats), or passed.
type rejectReason int

const (
	passed rejectReason = iota
	rejectI
	rejectII
	rejectIII
)

// checker evaluates the three constraints for a tentative extension. The
// child graph must already contain the new edge (and vertex, for forward
// extensions); dh and dt are the child's updated index slices.
type checker struct {
	mode  CheckMode
	stats *statCounters
}

// checkScratch is the reusable per-worker storage of the Theorem-3
// test and of the D_H/D_T refresh: BFS distance and queue buffers, the
// two label sequences compared, the sweep frontiers and a stamp table
// marking the vertices already in the next frontier.
type checkScratch struct {
	da, db         []int32
	queue          []graph.V
	lseq, seq      []graph.Label
	frontier, next []graph.V
	inNext         []uint32 // per pattern vertex: stamp of the sweep step that queued it
	epoch          uint32
}

// bfs returns the BFS distances from src in g, written into dist.
func (cs *checkScratch) bfs(g *graph.Graph, src graph.V, dist []int32) []int32 {
	dist = slices.Grow(dist[:0], g.N())[:g.N()]
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	cs.queue = g.BFSInto(src, dist, cs.queue)
	return dist
}

// nextStamp starts a fresh inNext generation over n vertices.
func (cs *checkScratch) nextStamp(n int) {
	if len(cs.inNext) < n {
		cs.inNext = make([]uint32, 2*n)
	}
	cs.epoch++
	if cs.epoch == 0 {
		clear(cs.inNext)
		cs.epoch = 1
	}
}

// checkForward validates attaching new vertex u (the last vertex of g)
// to v. dh/dt must already hold u's indices (computed as D_H[v]+1 and
// D_T[v]+1, exact because u's only edge is to v).
func (c *checker) checkForward(g *graph.Graph, diamLen int32, dh, dt []int32, u, v graph.V, cs *checkScratch) rejectReason {
	fast := func() rejectReason {
		d := diamLen
		if dh[u] > d || dt[u] > d {
			return rejectI // Theorem 1
		}
		if dh[u]+dt[u] < d {
			return rejectII // Theorem 2
		}
		// Theorem 3 trigger: max(D_H[v], D_T[v]) == D-1, i.e. the new
		// vertex is at distance D from an endpoint and a new diameter
		// path may exist.
		if dh[u] == d {
			if c.newDiamBeatsL(g, diamLen, u, 0, cs) {
				return rejectIII
			}
		}
		if dt[u] == d {
			if c.newDiamBeatsL(g, diamLen, u, graph.V(diamLen), cs) {
				return rejectIII
			}
		}
		return passed
	}
	return c.run(g, diamLen, fast)
}

// checkBackward validates adding an edge between existing vertices u, v.
// dh/dt must already be updated for the child graph (distances only
// shrink, so a BFS refresh from head and tail suffices).
func (c *checker) checkBackward(g *graph.Graph, diamLen int32, dh, dt []int32, u, v graph.V, cs *checkScratch) rejectReason {
	fast := func() rejectReason {
		d := diamLen
		// Constraint I holds automatically: edges between existing
		// vertices only shrink distances (Theorem 1 case 1).
		if dh[graph.V(d)] < d {
			return rejectII // head–tail distance shortened
		}
		// Theorem 3 trigger for case (2): a fresh head–tail path of
		// length exactly D runs through (u,v).
		if dh[u]+1+dt[v] == d || dh[v]+1+dt[u] == d {
			if c.newDiamBeatsL(g, diamLen, 0, graph.V(diamLen), cs) {
				return rejectIII
			}
		}
		return passed
	}
	return c.run(g, diamLen, fast)
}

func (c *checker) run(g *graph.Graph, diamLen int32, fast func() rejectReason) rejectReason {
	switch c.mode {
	case CheckNaive:
		return c.naive(g, diamLen)
	case CheckVerify:
		f := fast()
		n := c.naive(g, diamLen)
		if (f == passed) != (n == passed) {
			c.stats.checkMismatches.Add(1)
		}
		return n
	default:
		return fast()
	}
}

// newDiamBeatsL reports whether some shortest path of length DiamLen
// between a and b has a label sequence strictly smaller than L's. Label
// ties never reject: the diameter occupies vertices 0..DiamLen in ID
// order, and any distinct path must use a vertex with a larger ID at its
// first deviation, so L always wins the Definition-3 ID tie-break.
func (c *checker) newDiamBeatsL(g *graph.Graph, diamLen int32, a, b graph.V, cs *checkScratch) bool {
	cs.da = cs.bfs(g, a, cs.da)
	if cs.da[b] != diamLen {
		return false
	}
	cs.db = cs.bfs(g, b, cs.db)
	cs.lseq = cs.lseq[:0]
	for i := int32(0); i <= diamLen; i++ {
		cs.lseq = append(cs.lseq, g.Label(graph.V(i)))
	}
	if seq := minLabelSeqBetween(g, cs.da, cs.db, a, b, diamLen, cs); seq != nil && graph.CompareLabelSeqs(seq, cs.lseq) < 0 {
		return true
	}
	seq := minLabelSeqBetween(g, cs.db, cs.da, b, a, diamLen, cs)
	return seq != nil && graph.CompareLabelSeqs(seq, cs.lseq) < 0
}

// minLabelSeqBetween is the frontier sweep of graph.CanonicalDiameter
// specialized to a fixed (s,t) pair with precomputed BFS distances. The
// returned sequence aliases cs.seq.
func minLabelSeqBetween(g *graph.Graph, ds, dt []int32, s, t graph.V, d int32, cs *checkScratch) []graph.Label {
	if ds[t] != d {
		return nil
	}
	seq := append(cs.seq[:0], g.Label(s))
	frontier, next := append(cs.frontier[:0], s), cs.next[:0]
	found := true
	for i := int32(0); found && i < d; i++ {
		next = next[:0]
		cs.nextStamp(g.N())
		var minL graph.Label
		found = false
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if ds[w] != i+1 || dt[w] != d-i-1 {
					continue
				}
				if lw := g.Label(w); !found || lw < minL {
					minL = lw
					found = true
				}
			}
		}
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if ds[w] != i+1 || dt[w] != d-i-1 || g.Label(w) != minL {
					continue
				}
				if cs.inNext[w] != cs.epoch {
					cs.inNext[w] = cs.epoch
					next = append(next, w)
				}
			}
		}
		seq = append(seq, minL)
		frontier, next = next, frontier
	}
	cs.seq, cs.frontier, cs.next = seq, frontier, next
	if !found {
		return nil
	}
	return seq
}

// naive recomputes the canonical diameter of the child graph and demands
// it be exactly the path 0..DiamLen.
func (c *checker) naive(g *graph.Graph, diamLen int32) rejectReason {
	cd, diam := g.CanonicalDiameter()
	if diam != diamLen {
		if diam > diamLen {
			return rejectI
		}
		return rejectII
	}
	for i, v := range cd {
		if v != graph.V(i) {
			return rejectIII
		}
	}
	return passed
}
