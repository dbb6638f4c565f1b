package core

import (
	"slices"

	"skinnymine/internal/dfscode"
	"skinnymine/internal/graph"
	"skinnymine/internal/support"
)

// LevelGrow (Algorithm 3): grow a pattern by all valid combinations of
// level-i edges. Iteration i may add only
//
//	(a) a forward edge attaching a new vertex to an (i-1)-level vertex
//	    (the new vertex is exactly i-level: its sole edge fixes its
//	    distance to the diameter), or
//	(b) a backward edge between existing vertices whose levels are
//	    {i-1, i} or {i, i}.
//
// Neither kind can change any existing vertex's level: a path through
// the new edge to the diameter costs at least min(level(u), level(v))+1,
// which never undercuts a level (adjacent levels differ by at most one).
//
// Extensions are enumerated in canonical descriptor order and each
// pattern only extends with descriptors >= its anchor (Panchor), so each
// edge set is assembled in exactly one order within a cluster.

// growScratch is the reusable per-worker state of Stage II growth: a
// stamped inverse-map table sized by the largest data graph (replacing
// the map[graph.V]int32 rebuilt per embedding in candidates), plus
// descriptor and embedding-map buffers, the scratch child graph and
// D_H/D_T indices an extension is tried on, the Theorem-3 buffers, the
// embedding sets' subgraph-key buffers and the canonicalizer behind
// dedup. One scratch belongs to exactly one worker goroutine; nothing
// here is shared.
type growScratch struct {
	inv      *stampTable
	descSeen map[extDesc]struct{}
	descBuf  []extDesc
	mapBuf   []graph.V

	child  graph.Graph
	dh, dt []int32
	check  checkScratch
	keys   support.Scratch
	canon  dfscode.Canonicalizer
}

func (m *miner) newGrowScratch() *growScratch {
	return &growScratch{
		inv:      newStampTable(m.maxN),
		descSeen: make(map[extDesc]struct{}, 32),
	}
}

// candidates collects the distinct valid extension descriptors of p at
// the given level, sorted, using the stored embedding maps so only
// data-supported extensions appear. The returned slice aliases
// sc.descBuf and is valid until the next candidates call on the same
// scratch.
func (m *miner) candidates(p *Pattern, level int32, sc *growScratch) []extDesc {
	clear(sc.descSeen)
	n := int32(p.G.N())
	for ei := 0; ei < p.Embs.Len(); ei++ {
		e := p.Embs.At(ei)
		g := m.graphs[e.GID]
		sc.inv.reset()
		for pi, dv := range e.Map {
			sc.inv.set(dv, int32(pi))
		}
		for pi := int32(0); pi < n; pi++ {
			lv := p.Level[pi]
			if lv != level-1 && lv != level {
				continue
			}
			dv := e.Map[pi]
			for _, w := range g.Neighbors(dv) {
				if qj, mapped := sc.inv.get(w); mapped {
					// Backward edge candidate between pattern vertices.
					if p.G.HasEdge(graph.V(pi), graph.V(qj)) {
						continue
					}
					lu, lw := lv, p.Level[qj]
					if lu > lw {
						lu, lw = lw, lu
					}
					if lw != level || lu < level-1 {
						continue
					}
					a, b := pi, qj
					if a > b {
						a, b = b, a
					}
					sc.descSeen[extDesc{kind: 0, src: a, dst: b}] = struct{}{}
				} else if lv == level-1 {
					// Forward edge candidate: new vertex at this level.
					sc.descSeen[extDesc{kind: 1, src: pi, dst: -1, label: g.Label(w)}] = struct{}{}
				}
			}
		}
	}
	out := sc.descBuf[:0]
	for d := range sc.descSeen {
		out = append(out, d)
	}
	slices.SortFunc(out, compareDesc)
	sc.descBuf = out
	return out
}

// extend applies descriptor d to p at the given level, checks the three
// constraints and the frequency threshold, and returns the child pattern
// or nil with the reason.
//
// The extension is tried on the worker's scratch graph and indices:
// most candidates fail Constraint I or III, and under CheckFast a
// rejected candidate allocates nothing. Only a child that passes the constraints gets an
// embedding set, and only a frequent one gets its own graph and
// indices.
func (m *miner) extend(p *Pattern, d extDesc, level int32, sc *growScratch) (*Pattern, rejectReason) {
	g := &sc.child
	p.G.CopyTo(g)
	if d.kind == 1 {
		u := g.AddVertex(d.label)
		g.MustAddEdge(graph.V(d.src), u)
		sc.dh = append(append(sc.dh[:0], p.DH...), p.DH[d.src]+1)
		sc.dt = append(append(sc.dt[:0], p.DT...), p.DT[d.src]+1)
		if r := m.check.checkForward(g, p.DiamLen, sc.dh, sc.dt, u, graph.V(d.src), &sc.check); r != passed {
			return nil, r
		}
	} else {
		g.MustAddEdge(graph.V(d.src), graph.V(d.dst))
		// Distances only shrink; refresh the two indices from scratch
		// (the pattern is small). This is the paper's "local update" of
		// D_H and D_T, as opposed to all-pairs recomputation.
		sc.dh = sc.check.bfs(g, 0, sc.dh)
		sc.dt = sc.check.bfs(g, graph.V(p.DiamLen), sc.dt)
		if r := m.check.checkBackward(g, p.DiamLen, sc.dh, sc.dt, graph.V(d.src), graph.V(d.dst), &sc.check); r != passed {
			return nil, r
		}
	}

	// Frequency: derive the child's embeddings from the parent's maps.
	// Extended maps are assembled in sc.mapBuf; Set.Add copies what it
	// stores, so the buffer is reused across embeddings. The maps are
	// distinct, as Set.Add requires: a backward child keeps a subset of
	// the parent's distinct maps, and a forward child extends each
	// parent map by a vertex not in it.
	embs := support.NewSet(g.Edges(), m.opt.MaxEmbeddings)
	for ei := 0; ei < p.Embs.Len(); ei++ {
		e := p.Embs.At(ei)
		dg := m.graphs[e.GID]
		if d.kind == 0 {
			if dg.HasEdge(e.Map[d.src], e.Map[d.dst]) {
				embs.Add(e, &sc.keys) // same map, richer edge set
			}
			continue
		}
		src := e.Map[d.src]
		for _, w := range dg.Neighbors(src) {
			if dg.Label(w) != d.label {
				continue
			}
			if inMap(e.Map, w) {
				continue
			}
			sc.mapBuf = append(sc.mapBuf[:0], e.Map...)
			sc.mapBuf = append(sc.mapBuf, w)
			embs.Add(support.Embedding{GID: e.GID, Map: sc.mapBuf}, &sc.keys)
		}
	}
	if embs.Count(m.opt.Measure) < m.opt.Support {
		return nil, passed // frequency reject, signalled by nil child
	}

	// Materialize: one array holds the child's D_H and D_T (and its
	// levels after a forward edge). A backward edge changes no level
	// (see above), so that child shares its parent's Level slice, which
	// is never written after construction.
	n := g.N()
	child := &Pattern{
		G:         g.Clone(),
		DiamLen:   p.DiamLen,
		Level:     p.Level,
		Embs:      embs,
		anchor:    d,
		hasAnchor: true,
	}
	size := 2 * n
	if d.kind == 1 {
		size = 3 * n
	}
	idx := make([]int32, size)
	child.DH = idx[:n:n]
	child.DT = idx[n : 2*n : 2*n]
	copy(child.DH, sc.dh)
	copy(child.DT, sc.dt)
	if d.kind == 1 {
		child.Level = idx[2*n:]
		copy(child.Level, p.Level)
		child.Level[n-1] = level
	}
	return child, passed
}

func inMap(m []graph.V, w graph.V) bool {
	for _, v := range m {
		if v == w {
			return true
		}
	}
	return false
}

// greedyLevelGrow absorbs valid frequent level-i extensions into one
// maximal pattern (Options.GreedyGrow).
func (m *miner) greedyLevelGrow(p *Pattern, level int32, sc *growScratch) []*Pattern {
	if m.budgetExhausted() {
		return nil // don't grind a full greedy fixpoint just to drop it
	}
	cur := p
	grew := false
	for {
		applied := false
		for _, d := range m.candidates(cur, level, sc) {
			m.stats.extensionsTried.Add(1)
			child, reason := m.extend(cur, d, level, sc)
			switch reason {
			case rejectI:
				m.stats.constraintRejects[0].Add(1)
			case rejectII:
				m.stats.constraintRejects[1].Add(1)
			case rejectIII:
				m.stats.constraintRejects[2].Add(1)
			}
			if child == nil {
				if reason == passed {
					m.stats.frequencyRejects.Add(1)
				}
				continue
			}
			// Constraint pushdown: greedy growth must not absorb an
			// extension the constraint forbids — skipping it here is
			// what makes MaximalOnly discover *constrained* maximal
			// patterns instead of post-filtering everything away.
			if m.rejectPushdown(child) {
				m.stats.pushdownRejects.Add(1)
				continue
			}
			cur = child
			applied = true
			grew = true
			break // recompute candidates against the grown pattern
		}
		if !applied {
			break
		}
	}
	if !grew {
		return nil
	}
	m.stats.generated.Add(1)
	if !m.dedup(cur, sc) {
		m.stats.duplicates.Add(1)
		return nil
	}
	if !m.consumeBudget() {
		return nil // MaxPatterns budget exhausted; drop, don't emit
	}
	return []*Pattern{cur}
}

// levelGrow expands p with every valid non-empty set of level-i edges,
// returning all distinct (by canonical code) valid frequent children,
// transitively. Every returned pattern holds a reserved MaxPatterns
// budget slot: the slot is taken only after the child passes dedup, and
// a child that fails to reserve one is dropped, so the number of
// patterns emitted across all workers never exceeds the budget.
func (m *miner) levelGrow(p *Pattern, level int32, sc *growScratch) []*Pattern {
	if m.opt.GreedyGrow {
		return m.greedyLevelGrow(p, level, sc)
	}
	if m.budgetExhausted() {
		return nil
	}
	var out []*Pattern
	frontier := []*Pattern{p}
	for len(frontier) > 0 {
		var next []*Pattern
		for _, cur := range frontier {
			for _, d := range m.candidates(cur, level, sc) {
				if cur.hasAnchor && compareDesc(d, cur.anchor) < 0 {
					continue
				}
				m.stats.extensionsTried.Add(1)
				child, reason := m.extend(cur, d, level, sc)
				switch reason {
				case rejectI:
					m.stats.constraintRejects[0].Add(1)
				case rejectII:
					m.stats.constraintRejects[1].Add(1)
				case rejectIII:
					m.stats.constraintRejects[2].Add(1)
				}
				if child == nil {
					if reason == passed {
						m.stats.frequencyRejects.Add(1)
					}
					continue
				}
				// Constraint pushdown, before the (expensive) canonical
				// code: an anti-monotone violation cuts the child and
				// its whole subtree, exactly the patterns the output
				// filter would have dropped one by one.
				if m.rejectPushdown(child) {
					m.stats.pushdownRejects.Add(1)
					continue
				}
				m.stats.generated.Add(1)
				if !m.dedup(child, sc) {
					m.stats.duplicates.Add(1)
					continue
				}
				if !m.consumeBudget() {
					// Budget exhausted: the child could not reserve a
					// slot, so it is NOT part of the result.
					return append(out, next...)
				}
				next = append(next, child)
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}
