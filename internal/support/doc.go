// Package support provides embeddings and support counting for pattern
// mining — the frequency side of every stage of SkinnyMine.
//
// # Paper correspondence
//
// The paper defines an embedding of a pattern P in a graph G as a
// subgraph of G isomorphic to P, and the support of P in the
// single-graph setting as |E[P]|, the number of such subgraphs
// (Section 2). Distinct isomorphism maps onto the same subgraph
// (pattern automorphisms) therefore count once; embeddings are
// deduplicated by their edge-set key. Measure selects between that
// subgraph count (EmbeddingCount), the graph-transaction count the
// evaluation's database experiments use (GraphCount), and the
// minimum-image-based support of Bringmann & Nijssen (MNICount).
//
// # Representation
//
// A Set stores a pattern's embeddings columnarly — one flat vertex
// slice with a fixed stride plus a graph-ID column — and counts
// distinct subgraphs through a hash-indexed byte arena, so the Stage II
// hot paths iterate and insert without per-embedding allocations.
// MaxEmbeddings caps stored maps; Support() and GraphSupport() stay
// exact past the cap because their key/GID sets are maintained on every
// Add, while MNI and further growth work from the stored sample.
//
// A Set does not deduplicate isomorphism maps: Add stores every map it
// is given. Every caller supplies distinct maps by construction —
// Stage II seeds come from Stage I's exactly deduplicated oriented
// path embeddings, a forward child's maps are distinct parent maps
// each extended by a vertex not in it, a backward child's maps are a
// subset of its parent's, and graph.EnumerateEmbeddings yields each map
// once. A repeated map could not change Support or GraphSupport anyway,
// since the subgraph-key arena and the GID set are idempotent.
//
// # Concurrency and ownership
//
// A Set belongs to exactly one pattern and is written by exactly one
// goroutine (the worker growing that pattern's cluster); the mining
// engine never shares a Set across workers. Add builds subgraph keys in
// a caller-owned Scratch, which the engine keeps one of per worker, so
// a Set carries no key-building buffers of its own. Reads through
// Len/At/Embeddings return views into the columnar storage — valid
// until the next Add, never to be mutated. CountEmbeddings helpers
// construct private Sets and are safe to call concurrently.
package support
