package support

import (
	"slices"

	"skinnymine/internal/graph"
)

// Embedding maps pattern vertices (by index) to data-graph vertices. GID
// identifies the transaction graph for transaction databases and is 0 in
// the single-graph setting.
type Embedding struct {
	GID int32
	Map []graph.V
}

// Clone returns a deep copy of e.
func (e Embedding) Clone() Embedding {
	return Embedding{GID: e.GID, Map: append([]graph.V(nil), e.Map...)}
}

// SubgraphKey returns a canonical key identifying the subgraph an
// embedding occupies: the sorted list of mapped data edges (prefixed by
// the graph ID). Two embeddings with equal keys are the same subgraph.
// Patterns with no edges key on the mapped vertex set instead. The Set
// hot path builds the same bytes into a reused scratch buffer and never
// materializes the string; this form exists for tests and external
// callers.
func SubgraphKey(patternEdges []graph.Edge, e Embedding) string {
	b, _, _ := appendSubgraphKey(nil, nil, nil, patternEdges, e)
	return string(b)
}

// appendSubgraphKey appends the canonical subgraph key bytes of e to
// dst, using (and returning) the caller's edge/vertex scratch slices so
// repeated calls allocate nothing once the buffers have grown.
func appendSubgraphKey(dst []byte, es []graph.Edge, vs []graph.V,
	patternEdges []graph.Edge, e Embedding) ([]byte, []graph.Edge, []graph.V) {
	if len(patternEdges) == 0 {
		vs = append(vs[:0], e.Map...)
		sortVertices(vs)
		dst = appendInt32(dst, e.GID)
		for _, v := range vs {
			dst = appendInt32(dst, v)
		}
		return dst, es, vs
	}
	es = es[:0]
	for _, pe := range patternEdges {
		es = append(es, graph.Edge{U: e.Map[pe.U], W: e.Map[pe.W]}.Norm())
	}
	sortEdges(es)
	dst = appendInt32(dst, e.GID)
	for _, de := range es {
		dst = appendInt32(dst, de.U)
		dst = appendInt32(dst, de.W)
	}
	return dst, es, vs
}

func sortVertices(vs []graph.V) { slices.Sort(vs) }

// sortEdges orders normalized edges by (U, W); slices.SortFunc is
// allocation-free, keeping the key scratch path alloc-free too.
func sortEdges(es []graph.Edge) {
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.W) - int(b.W)
	})
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Scratch is the reusable key-building storage of Set.Add. One Scratch
// may serve any number of Sets, but only one goroutine at a time: the
// mining engine keeps one per Stage II worker.
type Scratch struct {
	key   []byte
	edges []graph.Edge
	vs    []graph.V
}

// Set accumulates embeddings of one pattern. Support counts distinct
// subgraphs, but storage keeps every isomorphism *map* it is given:
// pattern automorphisms (e.g. a palindromic diameter) make several maps
// occupy one subgraph, and extension must proceed from all of them or
// patterns grown on the "other side" of a symmetry lose embeddings.
//
// Storage is columnar: one flat []graph.V holding all stored maps back
// to back with a fixed stride (the pattern's vertex count) plus a
// parallel GID column, so a Set costs two slices rather than one heap
// slice per embedding. Canonical subgraph keys live in a hash-indexed
// byte arena and are never materialized as strings.
//
// The zero value is not ready; use NewSet.
type Set struct {
	patternEdges []graph.Edge
	stride       int       // vertices per stored map (fixed per pattern)
	n            int       // stored embedding count
	gids         []int32   // per stored embedding
	vals         []graph.V // flat columnar storage, n*stride values
	keys         keyArena  // subgraph keys; Len() is the support
	gidSet       map[int32]struct{}
	limit        int // 0 = unlimited
	truncated    bool
}

// NewSet returns an embedding set for a pattern with the given edges.
// limit caps the number of *stored* embeddings (0 = unlimited). The
// Support and GraphSupport counts stay exact past the cap — their key
// and GID sets are maintained on every Add — but extension and MNI then
// work from the stored sample, which mirrors practical miners under
// blow-up.
func NewSet(patternEdges []graph.Edge, limit int) *Set {
	return &Set{patternEdges: patternEdges, limit: limit}
}

// Add records an embedding map, copying it into the columnar store
// unless the storage cap is reached. The subgraph it occupies and the
// graph it lives in are counted toward Support and GraphSupport either
// way (storage may be capped; counting never is). e.Map may alias a
// caller scratch buffer; sc holds the subgraph-key scratch.
//
// Add does not deduplicate maps: it stores every map it is given, so
// callers that extend from the stored maps must supply each map once
// (see the package doc for how Stage II does so by construction). A
// repeated map leaves Support and GraphSupport unchanged, since the
// subgraph-key arena and the GID set are idempotent.
func (s *Set) Add(e Embedding, sc *Scratch) {
	sc.key, sc.edges, sc.vs = appendSubgraphKey(sc.key[:0], sc.edges, sc.vs, s.patternEdges, e)
	s.keys.insert(sc.key)
	if s.gidSet == nil {
		s.gidSet = make(map[int32]struct{}, 4)
	}
	s.gidSet[e.GID] = struct{}{}
	if s.limit > 0 && s.n >= s.limit {
		s.truncated = true
		return
	}
	if s.n == 0 {
		s.stride = len(e.Map)
	} else if len(e.Map) != s.stride {
		panic("support: embedding map length differs within one Set")
	}
	s.gids = append(s.gids, e.GID)
	s.vals = append(s.vals, e.Map...)
	s.n++
}

// Support returns the number of distinct subgraphs recorded (the paper's
// |E[P]| in the single-graph setting). Exact even past the storage cap.
func (s *Set) Support() int { return s.keys.Len() }

// GraphSupport returns the number of distinct transaction graphs with at
// least one embedding. Exact even past the storage cap: the GID set is
// maintained at Add time regardless of whether the map was stored.
func (s *Set) GraphSupport() int { return len(s.gidSet) }

// MNI returns the minimum-image-based support (Bringmann & Nijssen): the
// minimum over pattern vertices of the number of distinct data vertices
// it maps to. It is anti-monotone in the single-graph setting and
// provided as an alternative support measure. When the storage cap
// truncated the set, MNI is computed over the stored sample and is
// therefore a lower bound on the exact value.
func (s *Set) MNI() int {
	if s.n == 0 {
		return 0
	}
	minImg := -1
	seen := make(map[graph.V]struct{}, s.n)
	for i := 0; i < s.stride; i++ {
		clear(seen)
		for j := 0; j < s.n; j++ {
			seen[s.vals[j*s.stride+i]] = struct{}{}
		}
		if minImg < 0 || len(seen) < minImg {
			minImg = len(seen)
		}
	}
	return minImg
}

// Len returns the number of stored embeddings.
func (s *Set) Len() int { return s.n }

// At returns the i-th stored embedding as a view into the columnar
// store: the Map aliases the Set's backing array and must not be
// modified or retained across Adds.
func (s *Set) At(i int) Embedding {
	lo, hi := i*s.stride, (i+1)*s.stride
	return Embedding{GID: s.gids[i], Map: s.vals[lo:hi:hi]}
}

// Embeddings returns the stored embeddings as views into the columnar
// store (see At). Callers must not modify the maps; hot paths should
// iterate with Len/At instead, which allocates nothing.
func (s *Set) Embeddings() []Embedding {
	out := make([]Embedding, s.n)
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Truncated reports whether the storage cap dropped embeddings.
func (s *Set) Truncated() bool { return s.truncated }

// Measure selects how support is counted.
type Measure int

const (
	// EmbeddingCount counts distinct subgraphs (the paper's |E[P]|).
	EmbeddingCount Measure = iota
	// GraphCount counts transaction graphs containing the pattern.
	GraphCount
	// MNICount uses minimum-image-based support.
	MNICount
)

// Count returns the set's support under the given measure.
func (s *Set) Count(m Measure) int {
	switch m {
	case GraphCount:
		return s.GraphSupport()
	case MNICount:
		return s.MNI()
	default:
		return s.Support()
	}
}

// CountEmbeddings enumerates all embeddings of pattern p in each target
// graph and returns the filled Set. For transaction databases pass all
// graphs; for the single-graph setting pass one.
func CountEmbeddings(p *graph.Graph, targets []*graph.Graph, limit int) *Set {
	set := NewSet(p.Edges(), limit)
	var sc Scratch
	for gi, t := range targets {
		gid := int32(gi)
		// EnumerateEmbeddings yields each map once.
		graph.EnumerateEmbeddings(p, t, func(mapped []graph.V) bool {
			set.Add(Embedding{GID: gid, Map: mapped}, &sc)
			return true
		})
	}
	return set
}
