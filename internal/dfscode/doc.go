// Package dfscode implements gSpan-style DFS codes for vertex-labeled
// undirected graphs: code construction, the DFS-lexicographic order,
// and minimal (canonical) code computation.
//
// # Paper correspondence
//
// The paper's Stage II (Algorithm 3) deduplicates generated patterns by
// graph isomorphism; minimal DFS codes are the canonical keys making
// that a string comparison — two graphs are isomorphic exactly when
// their minimal codes are equal (Yan & Han, ICDM 2002, the paper's
// gSpan baseline). SkinnyMine keys its shared dedup set and its
// canonical output order on MinCodeKey; the cross-shard result merge
// of internal/shard relies on the same property. The gSpan and MoSS
// baselines additionally use DFS codes as their search-space canonical
// form.
//
// # Implementation
//
// There is one implementation, the Canonicalizer: a flat, reusable
// stepwise greedy over all partial DFS traversals realizing the
// minimal code prefix, with per-traversal rows in double-buffered
// slabs, the rightmost path shared by every traversal, an n×n
// edge-index table, and the key written straight into a reused byte
// buffer. MinCode, MinCodeKey and IsMin are thin wrappers that use a
// fresh Canonicalizer per call.
//
// # Concurrency and ownership
//
// MinCode/MinCodeKey/IsMin are pure functions over their input graph
// and safe for concurrent calls. A Canonicalizer is single-owner: the
// Stage II engine keeps one per worker, and the code and key it returns
// alias its buffers until its next call. The invariance of the minimal
// code under vertex permutation is pinned by FuzzMinCodePermutation;
// the key bytes themselves by TestGoldenMinCodeKeys.
package dfscode
