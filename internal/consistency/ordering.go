package consistency

import (
	"sort"

	"aqua/internal/node"
)

// OrderTracker is the sequencer-side half of replicated GSN assignment
// (DESIGN.md §14): it folds each primary's acknowledged assignment frontier
// (AssignAck) and computes the majority floor — the highest GSN such that a
// quorum of the primary group (sequencer included) holds every assignment at
// or below it. The sequencer broadcasts the floor as an OrderCommit; commit
// buffers release up to it.
//
// Safety rests on two monotone facts: a replica's acknowledged frontier
// never regresses within an incarnation, and a takeover quorum always
// intersects the ack quorum behind any released floor — so a new sequencer's
// GSNReport merge re-learns every released assignment. Epochs ride along for
// diagnostics only.
type OrderTracker struct {
	quorum int
	acks   map[node.ID]uint64
	floor  uint64

	// scratch backs Floor's sort; reused across calls.
	scratch []uint64
}

// NewOrderTracker sizes the tracker for a primary group of groupSize
// replicas (sequencer included): quorum = groupSize/2 + 1.
func NewOrderTracker(groupSize int) *OrderTracker {
	return &OrderTracker{
		quorum: groupSize/2 + 1,
		acks:   make(map[node.ID]uint64),
	}
}

// Quorum returns the majority size the tracker requires.
func (t *OrderTracker) Quorum() int { return t.quorum }

// Observe folds a follower's acknowledged assignment frontier; the
// sequencer's own frontier is Floor's self and is never observed, or it
// would count twice toward the quorum. Stale (lower) acks are ignored:
// frontiers are monotone per incarnation, and a restarted peer's genuinely
// lower frontier only matters for floors not yet released — which Floor's
// own monotonicity already protects.
func (t *OrderTracker) Observe(peer node.ID, frontier uint64) {
	if frontier > t.acks[peer] {
		t.acks[peer] = frontier
	}
}

// Floor returns the majority-replicated floor given the sequencer's own
// assignment frontier: the quorum-th largest of {self} ∪ peer acks, clamped
// monotone. Zero until a quorum exists.
func (t *OrderTracker) Floor(self uint64) uint64 {
	s := append(t.scratch[:0], self)
	for _, f := range t.acks {
		s = append(s, f)
	}
	t.scratch = s
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	if len(s) >= t.quorum {
		if f := s[t.quorum-1]; f > t.floor {
			t.floor = f
		}
	}
	return t.floor
}
