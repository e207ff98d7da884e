package workload

import (
	"math/rand"
	"testing"
)

// TestZipfKeysDeterministicAndSkewed pins the two properties the hot-shard
// scenarios rely on: identical seed → identical key sequence (so sharded
// sweeps stay reproducible at any parallelism — each point owns its own
// KeyDist and rand, nothing is shared), and the default skew concentrates
// a large fraction of draws on the hottest keys.
func TestZipfKeysDeterministicAndSkewed(t *testing.T) {
	draw := func() []string {
		z := &ZipfKeys{N: 64}
		r := rand.New(rand.NewSource(7))
		out := make([]string, 2000)
		for i := range out {
			out[i] = z.Key(r)
		}
		return out
	}
	a, b := draw(), draw()
	counts := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %s vs %s", i, a[i], b[i])
		}
		counts[a[i]]++
	}
	// Zipf s=1.2 over 64 keys: the hottest key dominates.
	if counts["k0"] < len(a)/4 {
		t.Fatalf("hottest key drew %d of %d; distribution not skewed", counts["k0"], len(a))
	}
	if len(counts) < 5 {
		t.Fatalf("only %d distinct keys drawn", len(counts))
	}
}

func TestZipfKeysRebindsToNewSource(t *testing.T) {
	z := &ZipfKeys{N: 8}
	r1 := rand.New(rand.NewSource(1))
	first := z.Key(r1)
	_ = first
	// A different source must not silently keep drawing from the old one.
	r2 := rand.New(rand.NewSource(2))
	z.Key(r2)
	if z.src != r2 {
		t.Fatal("sampler did not rebind to the new rand source")
	}
}
