package consistency

import (
	"time"

	"aqua/internal/node"
)

// PendingRead tracks a read-only request while it moves through the
// server-side pipeline of Section 4.1.2: buffered until the sequencer's GSN
// broadcast arrives, then possibly deferred until the next lazy update.
type PendingRead struct {
	Req  Request
	From node.ID
	// ArrivedAt is when the request reached this gateway (starts tq).
	ArrivedAt time.Time
	// GSN is the sequencer's snapshot for this read, valid once assigned.
	GSN uint64
	// DeferredAt is when the replica decided to defer (starts tb); zero if
	// the read was never deferred.
	DeferredAt time.Time
}

// ReadBuffer pairs read request bodies with their GSN broadcasts, arriving
// in either order, and holds deferred reads until a state update.
//
// The sequencer broadcasts every read's GSN to all replicas, but only the
// selected subset holds the body, so unclaimed assignments (and the dedup
// memory of served requests) are bounded memos (Memo): oldest entries are
// pruned past maxMemo.
type ReadBuffer struct {
	waitingBody   map[RequestID]PendingRead // have body, waiting for GSN
	waitingAssign *Memo[uint64]             // have GSN, waiting for body
	deferred      []PendingRead
	seen          *Memo[struct{}] // delivered or in-flight, for dedup
}

// NewReadBuffer creates an empty buffer. maxMemo bounds the unclaimed
// assignment and dedup memos; <=0 selects a default.
func NewReadBuffer(maxMemo int) *ReadBuffer {
	if maxMemo <= 0 {
		maxMemo = 4096
	}
	return &ReadBuffer{
		waitingBody:   make(map[RequestID]PendingRead),
		waitingAssign: NewMemo[uint64](maxMemo),
		seen:          NewMemo[struct{}](maxMemo),
	}
}

// AddRead records an arriving read body. If its GSN broadcast already
// arrived the read is returned ready=true with GSN filled in; otherwise it
// is buffered. Duplicate bodies are dropped (ready=false).
func (b *ReadBuffer) AddRead(req Request, from node.ID, now time.Time) (pr PendingRead, ready bool) {
	if _, seen := b.seen.Get(req.ID); seen {
		return PendingRead{}, false
	}
	pr = PendingRead{Req: req, From: from, ArrivedAt: now}
	if gsn, ok := b.waitingAssign.Get(req.ID); ok {
		b.waitingAssign.Delete(req.ID)
		b.seen.Put(req.ID, struct{}{})
		pr.GSN = gsn
		return pr, true
	}
	b.waitingBody[req.ID] = pr
	return PendingRead{}, false
}

// AddAssign records a GSN broadcast for a read. If the body is waiting, the
// read is returned ready=true. Duplicate assignments for unseen bodies are
// memoized once.
func (b *ReadBuffer) AddAssign(id RequestID, gsn uint64) (pr PendingRead, ready bool) {
	if pr, ok := b.waitingBody[id]; ok {
		delete(b.waitingBody, id)
		b.seen.Put(id, struct{}{})
		pr.GSN = gsn
		return pr, true
	}
	if _, seen := b.seen.Get(id); !seen {
		b.waitingAssign.Put(id, gsn)
	}
	return PendingRead{}, false
}

// Defer parks a read that is too stale to serve until the next state
// update; now starts its tb clock.
func (b *ReadBuffer) Defer(pr PendingRead, now time.Time) {
	pr.DeferredAt = now
	b.deferred = append(b.deferred, pr)
}

// DrainDeferred removes and returns all deferred reads, oldest first. The
// caller re-checks staleness and may re-defer individual reads.
func (b *ReadBuffer) DrainDeferred() []PendingRead {
	out := b.deferred
	b.deferred = nil
	return out
}

// DeferredLen returns the number of parked deferred reads.
func (b *ReadBuffer) DeferredLen() int { return len(b.deferred) }

// AwaitingGSN returns the IDs of reads that have waited for a GSN broadcast
// since before cutoff — candidates for a GSNRequest chase after sequencer
// failover.
func (b *ReadBuffer) AwaitingGSN(cutoff time.Time) []RequestID {
	var out []RequestID
	for id, pr := range b.waitingBody {
		if pr.ArrivedAt.Before(cutoff) {
			out = append(out, id)
		}
	}
	// Sorted like PendingBodies: chase traffic must leave in a reproducible
	// order or a loaded run's event stream diverges between executions.
	sortRequestIDs(out)
	return out
}

// Forget drops all memory of a request ID, so a later body and assignment
// for it are delivered again. Only tests call it; production relies on the
// memos' bounded turnover. The ID's memo slots stay taken until evicted.
func (b *ReadBuffer) Forget(id RequestID) {
	b.seen.Delete(id)
	b.waitingAssign.Delete(id)
	delete(b.waitingBody, id)
}
