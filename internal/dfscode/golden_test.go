package dfscode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"skinnymine/internal/testutil"
)

// goldenKeysDigest is the SHA-256 of TestGoldenMinCodeKeys's key
// bytes, recorded before the canonicalizer rewrite. Pattern dedup and
// the output order both key on these bytes, so any change to them
// reorders or splits mining output.
const goldenKeysDigest = "71858a589783af404b2508d74867176b980aafb08add40838b7d71e8552ed284"

// TestGoldenMinCodeKeys hashes the MinCodeKey bytes of a pinned
// sequence of seeded random connected graphs: 2–10 vertices, up to n
// extra edges, 1–4 labels.
func TestGoldenMinCodeKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(20130622))
	h := sha256.New()
	for i := 0; i < 2000; i++ {
		n := 2 + rng.Intn(9)
		key := MinCodeKey(testutil.RandomConnectedGraph(rng, n, rng.Intn(n+1), 1+rng.Intn(4)))
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(key))))
		h.Write([]byte(key))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenKeysDigest {
		t.Errorf("MinCodeKey digest over the golden graphs = %s, want %s", got, goldenKeysDigest)
	}
}
