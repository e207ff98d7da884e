package consistency

import (
	"testing"
	"time"
)

var t0 = time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)

func readReq(seq uint64) Request {
	return Request{ID: rid("r", seq), Method: "Get", ReadOnly: true, Staleness: 2}
}

func TestReadBufferBodyThenAssign(t *testing.T) {
	b := NewReadBuffer(0)
	if _, ready := b.AddRead(readReq(1), "client", t0); ready {
		t.Fatal("read ready before GSN broadcast")
	}
	pr, ready := b.AddAssign(rid("r", 1), 9)
	if !ready || pr.GSN != 9 || pr.Req.ID != rid("r", 1) || !pr.ArrivedAt.Equal(t0) {
		t.Fatalf("pr = %+v ready = %v", pr, ready)
	}
}

func TestReadBufferAssignThenBody(t *testing.T) {
	b := NewReadBuffer(0)
	if _, ready := b.AddAssign(rid("r", 1), 4); ready {
		t.Fatal("assign ready without body")
	}
	pr, ready := b.AddRead(readReq(1), "client", t0)
	if !ready || pr.GSN != 4 {
		t.Fatalf("pr = %+v ready = %v", pr, ready)
	}
}

func TestReadBufferDuplicateBodyDropped(t *testing.T) {
	b := NewReadBuffer(0)
	b.AddAssign(rid("r", 1), 4)
	if _, ready := b.AddRead(readReq(1), "client", t0); !ready {
		t.Fatal("first body should be ready")
	}
	if _, ready := b.AddRead(readReq(1), "client", t0); ready {
		t.Fatal("duplicate body served twice")
	}
}

func TestReadBufferDuplicateAssignHarmless(t *testing.T) {
	b := NewReadBuffer(0)
	b.AddRead(readReq(1), "client", t0)
	if _, ready := b.AddAssign(rid("r", 1), 4); !ready {
		t.Fatal("assign with waiting body not ready")
	}
	if _, ready := b.AddAssign(rid("r", 1), 5); ready {
		t.Fatal("duplicate assign re-released the read")
	}
	// A duplicate body after completion must also stay quiet.
	if _, ready := b.AddRead(readReq(1), "client", t0); ready {
		t.Fatal("body after completion served again")
	}
}

func TestReadBufferDeferAndDrain(t *testing.T) {
	b := NewReadBuffer(0)
	b.AddRead(readReq(1), "client", t0)
	pr, _ := b.AddAssign(rid("r", 1), 4)
	b.Defer(pr, t0.Add(5*time.Millisecond))
	if b.DeferredLen() != 1 {
		t.Fatalf("DeferredLen = %d", b.DeferredLen())
	}
	drained := b.DrainDeferred()
	if len(drained) != 1 || !drained[0].DeferredAt.Equal(t0.Add(5*time.Millisecond)) {
		t.Fatalf("drained = %+v", drained)
	}
	if b.DeferredLen() != 0 || len(b.DrainDeferred()) != 0 {
		t.Fatal("drain did not clear")
	}
}

func TestReadBufferAwaitingGSN(t *testing.T) {
	b := NewReadBuffer(0)
	b.AddRead(readReq(1), "client", t0)
	b.AddRead(readReq(2), "client", t0.Add(time.Second))
	old := b.AwaitingGSN(t0.Add(500 * time.Millisecond))
	if len(old) != 1 || old[0] != rid("r", 1) {
		t.Fatalf("AwaitingGSN = %v", old)
	}
	all := b.AwaitingGSN(t0.Add(time.Hour))
	if len(all) != 2 {
		t.Fatalf("AwaitingGSN(all) = %v", all)
	}
}

func TestReadBufferForget(t *testing.T) {
	b := NewReadBuffer(0)
	b.AddRead(readReq(1), "client", t0)
	b.AddAssign(rid("r", 1), 4)
	b.Forget(rid("r", 1))
	// After Forget, the same ID may flow through again (fresh request).
	if _, ready := b.AddRead(readReq(1), "client", t0); ready {
		t.Fatal("ready without new assign")
	}
	if _, ready := b.AddAssign(rid("r", 1), 6); !ready {
		t.Fatal("forgotten ID did not flow again")
	}

	// Forget leaves r1's first dedup slot taken. Evicting that stale slot
	// must not drop r1's second delivery: r1 stays one of the last two
	// reads served.
	b = NewReadBuffer(2)
	deliver := func(seq uint64) bool {
		b.AddRead(readReq(seq), "client", t0)
		_, ready := b.AddAssign(rid("r", seq), seq)
		return ready
	}
	deliver(1)
	b.Forget(rid("r", 1))
	if !deliver(1) {
		t.Fatal("forgotten r1 not delivered again")
	}
	if !deliver(2) {
		t.Fatal("r2 not delivered")
	}
	if deliver(1) {
		t.Fatal("r1 delivered a third time")
	}
}

func TestReadBufferMemoPruning(t *testing.T) {
	b := NewReadBuffer(2)
	// Three unclaimed assignments: the oldest is pruned.
	b.AddAssign(rid("r", 1), 1)
	b.AddAssign(rid("r", 2), 2)
	b.AddAssign(rid("r", 3), 3)
	if _, ready := b.AddRead(readReq(1), "client", t0); ready {
		t.Fatal("pruned assignment still matched")
	}
	// Recent ones still match. (r1's body is now waiting, unrelated.)
	if _, ready := b.AddRead(readReq(3), "client", t0); !ready {
		t.Fatal("recent assignment lost")
	}
	// seen memo also prunes without breaking near-term dedup.
	b.AddAssign(rid("r", 2), 2)
	if _, ready := b.AddRead(readReq(2), "client", t0); !ready {
		t.Fatal("r2 should pair")
	}
	if _, ready := b.AddRead(readReq(2), "client", t0); ready {
		t.Fatal("immediate duplicate not suppressed")
	}
}
