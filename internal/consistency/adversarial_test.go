package consistency

// Adversarial delivery tests: each table row is a hostile message schedule
// (duplicates, reordering, stale replays, restarts modeled as fresh buffers
// fed a snapshot) and the exact commit stream it must produce. These encode
// the delivery hazards the chaos harness (internal/chaos) provokes at the
// network layer, pinned down at the data-structure level.

import (
	"testing"
	"time"
)

// op is one delivery step against a CommitBuffer.
type op struct {
	kind string // "body", "assign", "skip"
	seq  uint64 // request sequence (body, assign)
	gsn  uint64 // assigned GSN (assign) or snapshot CSN (skip)
}

func body(seq uint64) op     { return op{kind: "body", seq: seq} }
func asg(seq, gsn uint64) op { return op{kind: "assign", seq: seq, gsn: gsn} }
func skip(csn uint64) op     { return op{kind: "skip", gsn: csn} }
func play(b *CommitBuffer, ops []op) []uint64 {
	var committed []uint64
	take := func(reqs []Request) {
		for _, r := range reqs {
			committed = append(committed, r.ID.Seq)
		}
	}
	for _, o := range ops {
		switch o.kind {
		case "body":
			take(b.AddBody(upd(o.seq)))
		case "assign":
			take(b.AddAssign(assign(o.seq, o.gsn)))
		case "skip":
			take(b.SkipTo(o.gsn))
		}
	}
	return committed
}

func TestCommitBufferAdversarialDelivery(t *testing.T) {
	cases := []struct {
		name      string
		ops       []op
		commits   []uint64 // expected committed seqs, in order
		csn, gsn  uint64
		staleness int
	}{
		{
			name: "reversed assignment order",
			ops: []op{
				body(1), body(2), body(3),
				asg(3, 3), asg(2, 2), asg(1, 1),
			},
			commits: []uint64{1, 2, 3}, csn: 3, gsn: 3,
		},
		{
			name: "interleaved duplicates of every message",
			ops: []op{
				body(2), body(2), asg(2, 2), asg(2, 2),
				asg(1, 1), asg(1, 1), body(1), body(1),
			},
			commits: []uint64{1, 2}, csn: 2, gsn: 2,
		},
		{
			name: "duplicate assignment while still unpaired keeps first GSN",
			ops: []op{
				asg(1, 1), asg(1, 1), // sequencer retransmit, same GSN
				body(1),
			},
			commits: []uint64{1}, csn: 1, gsn: 1,
		},
		{
			name: "replayed pair after commit stays quiet",
			ops: []op{
				body(1), asg(1, 1),
				asg(1, 1), body(1), asg(1, 1),
			},
			commits: []uint64{1}, csn: 1, gsn: 1,
		},
		{
			name: "hole stalls everything behind it",
			ops: []op{
				body(1), asg(1, 1),
				body(3), asg(3, 3), body(4), asg(4, 4), // 2 missing
			},
			commits: []uint64{1}, csn: 1, gsn: 4, staleness: 3,
		},
		{
			name: "late straggler releases the stalled run",
			ops: []op{
				body(3), asg(3, 3), body(4), asg(4, 4),
				body(2), asg(2, 2), body(1), asg(1, 1),
			},
			commits: []uint64{1, 2, 3, 4}, csn: 4, gsn: 4,
		},
		{
			name: "snapshot subsumes staged updates and releases the tail",
			ops: []op{
				body(2), asg(2, 2), body(3), asg(3, 3),
				skip(2), // state transfer covers 1..2
			},
			commits: []uint64{3}, csn: 3, gsn: 3,
		},
		{
			name: "restart recovery: snapshot then replayed old traffic",
			// A fresh buffer (post-restart) restores to CSN 5 via state
			// transfer; the network then replays pre-crash bodies and
			// assignments 3..5. None may commit again; new update 6 may.
			ops: []op{
				skip(5),
				body(3), asg(3, 3), asg(4, 4), body(4), body(5), asg(5, 5),
				body(6), asg(6, 6),
			},
			commits: []uint64{6}, csn: 6, gsn: 6,
		},
		{
			name: "assignment racing ahead of snapshot is dropped as stale",
			ops: []op{
				asg(2, 2), // assignment arrives, body lost in a partition
				skip(4),   // snapshot already covers GSN 2
				body(2),   // body finally arrives — must not commit
			},
			commits: nil, csn: 4, gsn: 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewCommitBuffer()
			got := play(b, tc.ops)
			if len(got) != len(tc.commits) {
				t.Fatalf("commits = %v, want %v", got, tc.commits)
			}
			for i := range got {
				if got[i] != tc.commits[i] {
					t.Fatalf("commits = %v, want %v", got, tc.commits)
				}
			}
			if b.MyCSN() != tc.csn || b.MyGSN() != tc.gsn {
				t.Fatalf("CSN/GSN = %d/%d, want %d/%d", b.MyCSN(), b.MyGSN(), tc.csn, tc.gsn)
			}
			if b.Staleness() != tc.staleness {
				t.Fatalf("staleness = %d, want %d", b.Staleness(), tc.staleness)
			}
		})
	}
}

// TestReadBufferReDeferral models the secondary's lazy-update drain loop
// (replica.Gateway.redefer): a deferred read whose staleness bound is still
// violated after a state update goes back on the deferred queue with its
// original DeferredAt preserved, so the paper's tb clock keeps accumulating
// across re-deferrals.
func TestReadBufferReDeferral(t *testing.T) {
	cases := []struct {
		name      string
		gsn       uint64 // read's snapshot GSN
		staleness int
		csnAfter  []uint64 // replica CSN after each successive lazy update
		servedOn  int      // index of the update that releases it; -1 = never
	}{
		{name: "released on first update", gsn: 10, staleness: 2,
			csnAfter: []uint64{8}, servedOn: 0},
		{name: "still stale once, released on second", gsn: 10, staleness: 2,
			csnAfter: []uint64{7, 8}, servedOn: 1},
		{name: "re-deferred twice, released on third", gsn: 10, staleness: 0,
			csnAfter: []uint64{7, 9, 10}, servedOn: 2},
		{name: "never covered within the run", gsn: 10, staleness: 0,
			csnAfter: []uint64{7, 8}, servedOn: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewReadBuffer(0)
			req := Request{ID: rid("r", 1), Method: "Get", ReadOnly: true,
				Staleness: tc.staleness}
			b.AddRead(req, "client", t0)
			pr, ready := b.AddAssign(rid("r", 1), tc.gsn)
			if !ready {
				t.Fatal("read did not pair")
			}
			deferredAt := t0.Add(3 * time.Millisecond)
			b.Defer(pr, deferredAt)

			served := -1
			for i, csn := range tc.csnAfter {
				for _, d := range b.DrainDeferred() {
					if int64(d.GSN)-int64(csn) <= int64(d.Req.Staleness) {
						if served >= 0 {
							t.Fatal("read served twice")
						}
						served = i
						if !d.DeferredAt.Equal(deferredAt) {
							t.Fatalf("DeferredAt = %v, want original %v (tb must accumulate)",
								d.DeferredAt, deferredAt)
						}
					} else {
						// Mirror Gateway.redefer: preserve the original tb start.
						b.Defer(d, d.DeferredAt)
					}
				}
			}
			if served != tc.servedOn {
				t.Fatalf("served on update %d, want %d", served, tc.servedOn)
			}
			if tc.servedOn == -1 && b.DeferredLen() != 1 {
				t.Fatalf("DeferredLen = %d, want 1 (still parked)", b.DeferredLen())
			}
		})
	}
}

// TestReadBufferAdversarialAssignReplay: duplicate and contradictory GSN
// broadcasts (possible during sequencer failover, where the new sequencer
// re-answers chased reads) never double-serve and never resurrect a served
// read.
func TestReadBufferAdversarialAssignReplay(t *testing.T) {
	b := NewReadBuffer(0)
	// Assignment, duplicate assignment with a different GSN (failover
	// re-answer), then the body: first memoized GSN wins.
	b.AddAssign(rid("r", 1), 4)
	b.AddAssign(rid("r", 1), 6)
	pr, ready := b.AddRead(readReq(1), "client", t0)
	if !ready || pr.GSN != 4 {
		t.Fatalf("pr = %+v ready = %v, want GSN 4", pr, ready)
	}
	// Post-serve replays of both assignment and body stay quiet.
	if _, ready := b.AddAssign(rid("r", 1), 6); ready {
		t.Fatal("post-serve assignment replay re-released the read")
	}
	if _, ready := b.AddRead(readReq(1), "client", t0); ready {
		t.Fatal("post-serve body replay re-released the read")
	}
}
