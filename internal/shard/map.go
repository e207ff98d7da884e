// Package shard partitions the keyspace across independent primary/secondary
// group pairs (DESIGN.md §12). A Map assigns contiguous ranges of a 32-bit
// hash ring to shard indices; a Router fronts one client gateway per shard,
// routes each invocation to the owning shard, and re-homes ranges live (the
// split/move protocol) without violating per-key sequential consistency.
//
// The paper's framework runs one sequencer, so total update throughput is
// bounded by a single ordering pipeline; sharding multiplies that ceiling by
// running one full framework instance per key range, with per-shard
// <a, d, Pc(d)> replica selection intact inside each shard.
package shard

import (
	"fmt"
	"sort"

	"aqua/internal/consistency"
)

// ringEnd is one past the highest ring position: ranges are half-open
// [lo, hi) intervals of hash values with hi <= ringEnd.
const ringEnd = uint64(1) << 32

// Hash maps a key onto the ring: FNV-1a, 32-bit. Exported so every routing
// layer (Router, tests crafting boundary keys) agrees on placement.
func Hash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

// Range is one contiguous hash interval and its owning shard.
type Range struct {
	Lo    uint64 // inclusive
	Hi    uint64 // exclusive; <= ringEnd
	Owner int
}

// Map is a versioned, immutable assignment of hash ranges to shard indices.
// Mutation (Move) returns a new Map with the version bumped; routers install
// the new value atomically from their own callback thread, so a version is
// either fully visible or not at all.
type Map struct {
	version uint64
	starts  []uint32 // ascending range starts; starts[0] == 0
	owners  []int    // owners[i] owns [starts[i], starts[i+1])
	shards  int      // total shard count (owners are < shards)
}

// NewUniform builds version-0 map splitting the ring into n equal ranges,
// range i owned by shard i.
func NewUniform(n int) *Map {
	if n < 1 {
		panic("shard: NewUniform needs at least 1 shard")
	}
	m := &Map{shards: n}
	step := ringEnd / uint64(n)
	for i := 0; i < n; i++ {
		m.starts = append(m.starts, uint32(uint64(i)*step))
		m.owners = append(m.owners, i)
	}
	return m
}

// Version returns the map's version; Move bumps it by one.
func (m *Map) Version() uint64 { return m.version }

// Shards returns the shard count the map routes across.
func (m *Map) Shards() int { return m.shards }

// Owner returns the shard index owning key.
func (m *Map) Owner(key string) int { return m.OwnerOf(Hash(key)) }

// OwnerOf returns the shard index owning ring position h. A position
// exactly on a range boundary belongs to the range starting there (lower
// bounds are inclusive, upper exclusive).
func (m *Map) OwnerOf(h uint32) int {
	// Greatest i with starts[i] <= h; starts[0] == 0 guarantees i >= 0.
	i := sort.Search(len(m.starts), func(i int) bool { return m.starts[i] > h }) - 1
	return m.owners[i]
}

// Ranges returns the map's ranges in ring order.
func (m *Map) Ranges() []Range {
	out := make([]Range, len(m.starts))
	for i := range m.starts {
		hi := ringEnd
		if i+1 < len(m.starts) {
			hi = uint64(m.starts[i+1])
		}
		out[i] = Range{Lo: uint64(m.starts[i]), Hi: hi, Owner: m.owners[i]}
	}
	return out
}

// RangeOwner reports the single shard owning the whole interval [lo, hi),
// or ok=false if the interval spans an ownership boundary.
func (m *Map) RangeOwner(lo, hi uint64) (owner int, ok bool) {
	if lo >= hi || hi > ringEnd {
		return 0, false
	}
	owner = m.OwnerOf(uint32(lo))
	for _, r := range m.Ranges() {
		if r.Lo < hi && lo < r.Hi && r.Owner != owner {
			return 0, false
		}
	}
	return owner, true
}

// Move returns a copy of the map with the interval [lo, hi) re-homed to
// shard `to` and the version bumped. Adjacent ranges with equal owners are
// coalesced, so a move that restores uniform ownership also restores the
// compact representation.
func (m *Map) Move(lo, hi uint64, to int) (*Map, error) {
	if lo >= hi || hi > ringEnd {
		return nil, fmt.Errorf("shard: Move: bad interval [%d, %d)", lo, hi)
	}
	if to < 0 || to >= m.shards {
		return nil, fmt.Errorf("shard: Move: shard %d out of range (have %d)", to, m.shards)
	}
	// Collect candidate boundaries: existing starts plus the interval ends.
	bounds := append([]uint32(nil), m.starts...)
	bounds = append(bounds, uint32(lo))
	if hi < ringEnd {
		bounds = append(bounds, uint32(hi))
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	next := &Map{version: m.version + 1, shards: m.shards}
	for i, b := range bounds {
		if i > 0 && b == bounds[i-1] {
			continue // dedup
		}
		owner := m.OwnerOf(b)
		if uint64(b) >= lo && uint64(b) < hi {
			owner = to
		}
		if n := len(next.owners); n > 0 && next.owners[n-1] == owner {
			continue // coalesce
		}
		next.starts = append(next.starts, b)
		next.owners = append(next.owners, owner)
	}
	return next, nil
}

// Announce renders the map as its wire message, for propagating shard-map
// versions to live-cluster routers.
func (m *Map) Announce() consistency.ShardMapAnnounce {
	a := consistency.ShardMapAnnounce{
		Version: m.version,
		Shards:  uint32(m.shards),
		Starts:  append([]uint32(nil), m.starts...),
	}
	for _, o := range m.owners {
		a.Owners = append(a.Owners, uint32(o))
	}
	return a
}

// FromAnnounce reconstructs a Map from its wire form, validating the
// invariants the routing code relies on (sorted starts beginning at 0,
// owners in range, equal lengths).
func FromAnnounce(a consistency.ShardMapAnnounce) (*Map, error) {
	if len(a.Starts) == 0 || len(a.Starts) != len(a.Owners) {
		return nil, fmt.Errorf("shard: announce: %d starts vs %d owners", len(a.Starts), len(a.Owners))
	}
	if a.Starts[0] != 0 {
		return nil, fmt.Errorf("shard: announce: first range starts at %d, want 0", a.Starts[0])
	}
	if a.Shards == 0 {
		return nil, fmt.Errorf("shard: announce: zero shard count")
	}
	m := &Map{version: a.Version, shards: int(a.Shards)}
	for i, s := range a.Starts {
		if i > 0 && s <= a.Starts[i-1] {
			return nil, fmt.Errorf("shard: announce: starts not strictly ascending at %d", i)
		}
		if a.Owners[i] >= a.Shards {
			return nil, fmt.Errorf("shard: announce: owner %d out of range (have %d)", a.Owners[i], a.Shards)
		}
		m.starts = append(m.starts, s)
		m.owners = append(m.owners, int(a.Owners[i]))
	}
	return m, nil
}
