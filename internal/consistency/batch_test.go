package consistency

import (
	"math/rand"
	"testing"
)

// TestAssignUpdateBatchMatchesSingleton drives a batched and a singleton
// sequencer over identical random request streams (with retransmissions)
// and requires identical assignments — batching must be a pure
// amortization, never a renumbering.
func TestAssignUpdateBatchMatchesSingleton(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		one := NewSequencerState(64)
		batched := NewSequencerState(64)
		for round := 0; round < 8; round++ {
			n := 1 + r.Intn(6)
			ids := make([]RequestID, n)
			for i := range ids {
				// Small key space so retransmissions (duplicates) occur, both
				// across rounds and inside a single batch.
				ids[i] = rid("c", uint64(r.Intn(12)))
			}
			want := make(map[RequestID]uint64, n)
			for _, id := range ids {
				want[id] = one.AssignUpdate(id)
			}
			first, fresh, dups := batched.AssignUpdateBatch(ids)
			for i, id := range fresh {
				if got := first + uint64(i); got != want[id] {
					t.Fatalf("trial %d: fresh %v got GSN %d, singleton gave %d", trial, id, got, want[id])
				}
			}
			for _, d := range dups {
				if d.GSN != want[d.ID] {
					t.Fatalf("trial %d: dup %v got GSN %d, singleton gave %d", trial, d.ID, d.GSN, want[d.ID])
				}
				if !d.Update {
					t.Fatalf("trial %d: dup %v lost Update flag", trial, d.ID)
				}
			}
			if len(fresh)+len(dups) != n {
				t.Fatalf("trial %d: %d fresh + %d dups != %d ids", trial, len(fresh), len(dups), n)
			}
			if one.GSN() != batched.GSN() {
				t.Fatalf("trial %d: counters diverged %d vs %d", trial, one.GSN(), batched.GSN())
			}
		}
	}
}

// TestAssignUpdateBatchWindowContiguous pins the window contract: fresh IDs
// occupy first..first+len(fresh)-1 with no holes even when duplicates are
// interleaved through the input.
func TestAssignUpdateBatchWindowContiguous(t *testing.T) {
	s := NewSequencerState(0)
	s.AssignUpdate(rid("c", 1)) // pre-assigned: will be the dup
	first, fresh, dups := s.AssignUpdateBatch([]RequestID{
		rid("c", 2), rid("c", 1), rid("c", 3), rid("c", 3),
	})
	if first != 2 || len(fresh) != 2 || fresh[0] != rid("c", 2) || fresh[1] != rid("c", 3) {
		t.Fatalf("window = %d %v", first, fresh)
	}
	// c1 was memoized before the batch; the second c3 was memoized by the
	// first occurrence inside it.
	if len(dups) != 2 || dups[0].GSN != 1 || dups[1].GSN != 3 {
		t.Fatalf("dups = %v", dups)
	}
	if s.GSN() != 3 {
		t.Fatalf("GSN = %d, want 3", s.GSN())
	}
}

// TestAddAssignBatchMatchesSequential interleaves random bodies and a
// batched assignment window against two buffers — one taking the batch in
// one call, one taking the equivalent singleton GSNAssigns — and requires
// the same commits in the same order and the same final CSN/GSN.
func TestAddAssignBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		one := NewCommitBuffer()
		batched := NewCommitBuffer()
		next := uint64(1)
		for round := 0; round < 6; round++ {
			n := 1 + r.Intn(5)
			ids := make([]RequestID, n)
			for i := range ids {
				ids[i] = rid("w", next+uint64(i))
			}
			first := next
			next += uint64(n)
			// A random subset of bodies lands before the assignment window,
			// the rest after — both arrival orders must agree.
			var late []RequestID
			for _, id := range ids {
				if r.Intn(2) == 0 {
					late = append(late, id)
					continue
				}
				one.AddBody(Request{ID: id, Method: "Set"})
				batched.AddBody(Request{ID: id, Method: "Set"})
			}
			var want []Request
			for i, id := range ids {
				want = append(want, one.AddAssign(GSNAssign{ID: id, GSN: first + uint64(i), Update: true})...)
			}
			got := append([]Request(nil), batched.AddAssignBatch(first, ids)...)
			for _, id := range late {
				want = append(want, one.AddBody(Request{ID: id, Method: "Set"})...)
				got = append(got, batched.AddBody(Request{ID: id, Method: "Set"})...)
			}
			if len(want) != len(got) {
				t.Fatalf("trial %d round %d: %d commits vs %d", trial, round, len(got), len(want))
			}
			for i := range want {
				if want[i].ID != got[i].ID {
					t.Fatalf("trial %d round %d: commit %d = %v, want %v", trial, round, i, got[i].ID, want[i].ID)
				}
			}
			if one.MyCSN() != batched.MyCSN() || one.MyGSN() != batched.MyGSN() {
				t.Fatalf("trial %d: CSN/GSN diverged %d/%d vs %d/%d",
					trial, batched.MyCSN(), batched.MyGSN(), one.MyCSN(), one.MyGSN())
			}
		}
	}
}

// TestAddAssignBatchDuplicateWindow re-delivers a committed window (the
// post-failover rebroadcast case): no re-commits, stale bodies dropped.
func TestAddAssignBatchDuplicateWindow(t *testing.T) {
	b := NewCommitBuffer()
	ids := []RequestID{rid("w", 1), rid("w", 2), rid("w", 3)}
	for _, id := range ids {
		b.AddBody(Request{ID: id, Method: "Set"})
	}
	if got := b.AddAssignBatch(1, ids); len(got) != 3 {
		t.Fatalf("first delivery committed %d, want 3", len(got))
	}
	b.AddBody(Request{ID: ids[1], Method: "Set"}) // retransmitted body
	if got := b.AddAssignBatch(1, ids); got != nil {
		t.Fatalf("duplicate window re-committed: %v", got)
	}
	if b.HasBody(ids[1]) {
		t.Fatal("stale retransmitted body not dropped by duplicate window")
	}
	if b.MyCSN() != 3 {
		t.Fatalf("CSN = %d, want 3", b.MyCSN())
	}
}

// TestAddAssignBatchGroupCommitSingleDrain stages a full window whose
// bodies all arrived first and expects the whole window in one call — the
// group-commit hot path.
func TestAddAssignBatchGroupCommitSingleDrain(t *testing.T) {
	b := NewCommitBuffer()
	const n = 64
	ids := make([]RequestID, n)
	for i := range ids {
		ids[i] = rid("w", uint64(i+1))
		b.AddBody(Request{ID: ids[i], Method: "Set"})
	}
	got := b.AddAssignBatch(1, ids)
	if len(got) != n {
		t.Fatalf("group commit released %d, want %d", len(got), n)
	}
	for i, req := range got {
		if req.ID != ids[i] {
			t.Fatalf("commit %d = %v, want %v", i, req.ID, ids[i])
		}
	}
}

// TestAddAssignBatchSteadyStateAllocs checks the hot path reuses its
// scratch: staging and draining a warm window performs no per-request
// allocations beyond map traffic.
func TestAddAssignBatchSteadyStateAllocs(t *testing.T) {
	b := NewCommitBuffer()
	ids := make([]RequestID, 32)
	for i := range ids {
		ids[i] = rid("w", uint64(i+1))
	}
	gsn := uint64(0)
	// Cycle one window of request IDs so map slots are reused; each round is
	// a fresh GSN window whose bodies all arrive, then group-commit.
	warm := func() {
		for i := range ids {
			b.AddBody(Request{ID: ids[i], Method: "Set"})
		}
		first := gsn + 1
		gsn += uint64(len(ids))
		b.AddAssignBatch(first, ids)
	}
	warm()
	warm()
	allocs := testing.AllocsPerRun(50, warm)
	// Map insert/delete churn may allocate occasionally; the point is that
	// the drain/stage path itself is amortized, not one-alloc-per-request.
	if allocs > float64(len(ids))/4 {
		t.Fatalf("AddAssignBatch steady state allocates %.1f per window of %d", allocs, len(ids))
	}
}

// TestSingletonAssignAllocs guards the receive path every singleton
// assignment takes: an update through AddAssign is wrapped as a window of
// one on the stack, so receiving it — like receiving a window of one
// directly, or a read snapshot — allocates nothing in steady state.
func TestSingletonAssignAllocs(t *testing.T) {
	b := NewCommitBuffer()
	update, window, read := rid("w", 1), rid("w", 2), rid("r", 1)
	gsn := uint64(0)
	round := func() {
		b.AddBody(Request{ID: update, Method: "Set"})
		gsn++
		if got := b.AddAssign(GSNAssign{ID: update, GSN: gsn, Update: true}); len(got) != 1 {
			t.Fatalf("singleton update committed %d, want 1", len(got))
		}
		b.AddBody(Request{ID: window, Method: "Set"})
		gsn++
		if got := b.AddAssignBatch(gsn, []RequestID{window}); len(got) != 1 {
			t.Fatalf("window of one committed %d, want 1", len(got))
		}
		b.AddAssign(GSNAssign{ID: read, GSN: gsn})
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("singleton assignments allocate %.1f per round, want 0", allocs)
	}
}
