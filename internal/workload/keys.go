// Key popularity for the open-loop engine. The engine's default workload
// touches a single key; a KeyDist spreads traffic over a key universe, here
// with the Zipf skew that concentrates a hot shard's worth of traffic onto a
// few keys.
package workload

import (
	"math/rand"
	"strconv"
)

// KeyDist samples keys for generated requests. Implementations may be
// stateful and are owned by one engine — never share an instance across
// engines (the same ownership rule as Process).
type KeyDist interface {
	Key(r *rand.Rand) string
}

// keyTable pre-renders the key strings "prefix<i>" so sampling allocates
// nothing in steady state.
func keyTable(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = prefix + strconv.Itoa(i)
	}
	return keys
}

// ZipfKeys samples from N keys with Zipf(s, v) popularity: key 0 is the
// hottest, and with the default skew roughly half of all traffic lands on a
// handful of keys — the hot-shard stress for a partitioned keyspace.
//
// The sampler draws through math/rand's rejection-free Zipf generator,
// which binds to one *rand.Rand at construction; ZipfKeys latches the first
// source Key sees, which under the engine is always the owning node's
// deterministic per-node stream.
type ZipfKeys struct {
	N      int
	S      float64 // skew exponent s > 1 (default 1.2)
	V      float64 // offset v >= 1 (default 1)
	Prefix string  // default "k"

	keys []string
	zipf *rand.Zipf
	src  *rand.Rand
}

// Key implements KeyDist.
func (z *ZipfKeys) Key(r *rand.Rand) string {
	if z.zipf == nil || z.src != r {
		if z.S <= 1 {
			z.S = 1.2
		}
		if z.V < 1 {
			z.V = 1
		}
		if z.Prefix == "" {
			z.Prefix = "k"
		}
		z.keys = keyTable(z.Prefix, z.N)
		z.zipf = rand.NewZipf(r, z.S, z.V, uint64(z.N-1))
		z.src = r
	}
	return z.keys[z.zipf.Uint64()]
}
