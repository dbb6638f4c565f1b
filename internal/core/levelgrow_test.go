package core

import (
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/support"
	"skinnymine/internal/testutil"
)

// TestEmbeddingSetsCompleteAndDistinct checks the contract Set.Add
// relies on: Stage II growth derives every embedding map of every
// emitted pattern, each exactly once. Set.Add no longer deduplicates
// maps, so a repeated map would show up as a Len larger than the
// number of distinct maps a from-scratch enumeration finds.
func TestEmbeddingSetsCompleteAndDistinct(t *testing.T) {
	cases := []struct {
		name   string
		graphs []*graph.Graph
		opt    Options
	}{
		{"single-graph", []*graph.Graph{testutil.SynthWorkload(21, 40)}, DefaultOptions(2, 3, 1)},
		// All-equal labels make every path palindromic, so seeds carry
		// both orientations of each path and growth runs on both.
		{"uniform-labels", []*graph.Graph{testutil.CycleGraph(0, 0, 0, 0, 0, 0, 0)}, DefaultOptions(1, 3, 1)},
		{"transactions", []*graph.Graph{
			testutil.SynthWorkload(6100, 30), testutil.SynthWorkload(6101, 30), testutil.SynthWorkload(6102, 30),
		}, DefaultOptions(2, 3, 1)},
	}
	for _, tc := range cases {
		res, err := MineDB(tc.graphs, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Patterns) == 0 {
			t.Fatalf("%s: mined no patterns", tc.name)
		}
		for _, p := range res.Patterns {
			want := support.CountEmbeddings(p.G, tc.graphs, 0)
			if p.Embs.Len() != want.Len() || p.Embs.Support() != want.Support() ||
				p.Embs.GraphSupport() != want.GraphSupport() {
				t.Errorf("%s: %v: stored %d maps, support %d, graphs %d; enumeration finds %d, %d, %d",
					tc.name, p, p.Embs.Len(), p.Embs.Support(), p.Embs.GraphSupport(),
					want.Len(), want.Support(), want.GraphSupport())
			}
		}
	}
}

// TestRejectedExtensionAllocatesNothing pins materialize-after-check:
// under CheckFast, a candidate rejected by Constraint I (the Theorem-1
// index test) or Constraint III (the Theorem-3 frontier sweep) is tried
// on the worker's scratch and allocates nothing once the scratch has
// grown.
func TestRejectedExtensionAllocatesNothing(t *testing.T) {
	data := testutil.PathGraph(0, 0, 1)
	pp := &PathPattern{Seq: []graph.Label{0, 0, 1}, Embs: []PathEmb{{Seq: graph.Path{0, 1, 2}}}}
	m := newTestMiner([]*graph.Graph{data}, DefaultOptions(1, 2, 1), 0)
	sc := m.newGrowScratch()
	p := newPatternFromPath(pp, m.graphs, 0, &sc.keys)
	for _, tc := range []struct {
		name string
		d    extDesc
		want rejectReason
	}{
		{"twig on the head", extDesc{kind: 1, src: 0, dst: -1, label: 0}, rejectI},
		{"lex-smaller diameter", extDesc{kind: 1, src: 1, dst: -1, label: 0}, rejectIII},
	} {
		if child, r := m.extend(p, tc.d, 1, sc); child != nil || r != tc.want {
			t.Fatalf("%s: got child %v reason %d, want reject %d", tc.name, child, r, tc.want)
		}
		if allocs := testing.AllocsPerRun(50, func() { m.extend(p, tc.d, 1, sc) }); allocs != 0 {
			t.Errorf("%s: rejected extension made %.1f allocs, want 0", tc.name, allocs)
		}
	}
}
