package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/support"
	"skinnymine/internal/testutil"
)

// Golden pins of Stage II output across commits. The refguard and
// determinism tests compare two runs of the same build, so a change to
// the canonical code bytes, a support count or a work counter that is
// applied consistently would pass them unnoticed. These digests were
// recorded before the Stage II allocation work and must not move: any
// engine change that alters them changes what the miner emits.

// goldenRecipe is one pinned mining call.
type goldenRecipe struct {
	name   string
	graphs func() []*graph.Graph
	opt    func() Options
	digest string // SHA-256 of resultDigestBytes
	stats  Stats  // counters only; the two timings are zeroed
}

var goldenRecipes = []goldenRecipe{
	{
		// The mine-full benchmark recipe: complete enumeration on one
		// SynthWorkload graph, where Stage II does nearly all the work.
		name:   "synth400",
		graphs: func() []*graph.Graph { return []*graph.Graph{testutil.SynthWorkload(400, 100)} },
		opt:    func() Options { return DefaultOptions(3, 4, 1) },
		digest: "9ffc741f36890a61e46810cbf1569069eb8c3226abd0d52a23ebd30f575e3d8e",
		stats: Stats{PathsMined: 209, ExtensionsTried: 39283, Generated: 7201, Duplicates: 109,
			ConstraintRejects: [3]int{23778, 0, 4764}, FrequencyRejects: 3540},
	},
	{
		// A GraphCount transaction database: support is the number of
		// graphs, while the emitted subgraph support still comes from
		// the subgraph-key arena.
		name: "graphcount-db",
		graphs: func() []*graph.Graph {
			db := make([]*graph.Graph, 8)
			for i := range db {
				db[i] = testutil.SynthWorkload(6100+int64(i), 60)
			}
			return db
		},
		opt: func() Options {
			opt := DefaultOptions(3, 4, 1)
			opt.Measure = support.GraphCount
			return opt
		},
		digest: "d62f8dd0513f4c23f680e8d0dac070394583ac0d34a15f2e8aa84d34128cbb00",
		stats: Stats{PathsMined: 1386, ExtensionsTried: 35898, Generated: 801, Duplicates: 17,
			ConstraintRejects: [3]int{15271, 0, 5548}, FrequencyRejects: 14278},
	},
}

// resultDigestBytes serializes the ordered result: per pattern its
// diameter length, canonical code key, subgraph support, graph support
// and skinniness.
func resultDigestBytes(ps []*Pattern) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ps)))
	for _, p := range ps {
		b = binary.LittleEndian.AppendUint32(b, uint32(p.DiamLen))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.CodeKey())))
		b = append(b, p.CodeKey()...)
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Support()))
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Embs.Count(support.GraphCount)))
		b = binary.LittleEndian.AppendUint32(b, uint32(p.MaxLevel()))
	}
	return b
}

func resultDigest(ps []*Pattern) string {
	sum := sha256.Sum256(resultDigestBytes(ps))
	return hex.EncodeToString(sum[:])
}

func TestGoldenStageIIOutput(t *testing.T) {
	for _, r := range goldenRecipes {
		graphs := r.graphs()
		for _, workers := range []int{1, 8} {
			opt := r.opt()
			opt.Concurrency = workers
			res, err := MineDB(graphs, opt)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			if got := resultDigest(res.Patterns); got != r.digest {
				t.Errorf("%s at concurrency %d: result digest %s, want %s (%d patterns)",
					r.name, workers, got, r.digest, len(res.Patterns))
			}
			st := res.Stats
			st.DiamMineTime, st.LevelGrowTime = 0, 0
			if st != r.stats {
				t.Errorf("%s at concurrency %d: stats %+v, want %+v", r.name, workers, st, r.stats)
			}
		}
	}
}

// TestGoldenCheckVerify runs the golden recipes with CheckVerify: the
// fast D_H/D_T conditions must agree with the from-scratch canonical
// diameter on every extension, and the result must be the pinned one.
func TestGoldenCheckVerify(t *testing.T) {
	for _, r := range goldenRecipes {
		if testing.Short() && r.name == "synth400" {
			continue // the naive check recomputes every child's canonical diameter
		}
		opt := r.opt()
		opt.CheckMode = CheckVerify
		opt.Concurrency = 2
		res, err := MineDB(r.graphs(), opt)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Stats.CheckMismatches != 0 {
			t.Errorf("%s: %d fast/naive check mismatches", r.name, res.Stats.CheckMismatches)
		}
		if got := resultDigest(res.Patterns); got != r.digest {
			t.Errorf("%s: CheckVerify result digest %s, want %s", r.name, got, r.digest)
		}
	}
}
