package consistency

import "sort"

// CommitBuffer implements the primary replica's commit-in-GSN-order logic
// from Section 4.1.1. A replica holds two pieces of state, my_GSN and
// my_CSN; an update may be delivered to the application only when both the
// request body (from the client) and its GSN assignment (from the
// sequencer) have arrived, and only in strictly increasing GSN order. The
// buffer pairs up bodies and assignments arriving in either order and emits
// commits as they become sequential.
type CommitBuffer struct {
	myGSN uint64
	myCSN uint64

	// pendingGSN maps request IDs to assigned GSNs received before (or
	// with) their bodies.
	pendingGSN map[RequestID]uint64
	// pendingBody holds update bodies awaiting their GSN assignment.
	pendingBody map[RequestID]Request
	// ready holds fully-paired updates keyed by GSN, awaiting their turn.
	ready map[uint64]Request

	// Replicated GSN assignment (DESIGN.md §14) adds a release gate: when
	// gated, drain stops at the ceiling — the highest GSN the sequencer has
	// announced as majority-replicated (OrderCommit.Floor) — so no commit is
	// released to the application before its assignment survives any
	// sequencer death. assigned maps the update GSNs above my_CSN whose
	// assignments this replica holds to their request IDs, backing
	// AssignFrontier and ContiguousAssigns (the durable-logging input); it
	// is maintained only when gated.
	gated    bool
	ceiling  uint64
	assigned map[uint64]RequestID

	// drainScratch and idScratch back the slices returned by
	// AddBody/AddAssign/SkipTo and PendingBodies/PendingAssignments. The
	// returned slices are valid only until the next call on the buffer;
	// every caller consumes them synchronously (the runtimes serialize all
	// callbacks of the owning node), and commits flow on every update, so
	// reusing the backing array removes a per-commit allocation.
	drainScratch []Request
	idScratch    []RequestID
}

// NewCommitBuffer creates an empty buffer with my_GSN = my_CSN = 0.
func NewCommitBuffer() *CommitBuffer {
	return &CommitBuffer{
		pendingGSN:  make(map[RequestID]uint64),
		pendingBody: make(map[RequestID]Request),
		ready:       make(map[uint64]Request),
	}
}

// MyGSN returns the replica's local view of the highest GSN it has seen.
func (b *CommitBuffer) MyGSN() uint64 { return b.myGSN }

// MyCSN returns the commit sequence number: the GSN of the most recent
// update committed. Every update with GSN <= MyCSN has been committed.
func (b *CommitBuffer) MyCSN() uint64 { return b.myCSN }

// Staleness returns my_GSN − my_CSN, the replica's staleness measure from
// Section 4.1.2.
func (b *CommitBuffer) Staleness() int { return int(b.myGSN - b.myCSN) }

// StagedLen returns how many updates sit in the buffer waiting to commit:
// paired updates out of sequence plus half-arrived bodies and assignments.
// It is an O(1) depth reading for the observability layer.
func (b *CommitBuffer) StagedLen() int {
	return len(b.ready) + len(b.pendingBody) + len(b.pendingGSN)
}

// Bootstrap seeds a recovered replica's position: my_GSN = my_CSN = csn,
// with the release ceiling at least csn (the recovered prefix was released
// before the crash). Called once, before any traffic reaches the buffer.
func (b *CommitBuffer) Bootstrap(csn uint64) {
	b.myGSN, b.myCSN = csn, csn
	if csn > b.ceiling {
		b.ceiling = csn
	}
}

// GateReleases switches the buffer into replicated-assignment mode: drain
// stops at the release ceiling until SetCeiling raises it. The ceiling
// starts at the current commit frontier, so the already-released prefix
// stays released.
func (b *CommitBuffer) GateReleases() {
	b.gated = true
	if b.assigned == nil {
		b.assigned = make(map[uint64]RequestID)
	}
	if b.myCSN > b.ceiling {
		b.ceiling = b.myCSN
	}
}

// SetCeiling raises the release ceiling to the sequencer's majority floor
// and returns the commits that become releasable, in commit order. Floors
// are monotone facts, so a stale (lower) floor is ignored. No-op when the
// buffer is not gated.
func (b *CommitBuffer) SetCeiling(floor uint64) []Request {
	if !b.gated || floor <= b.ceiling {
		return nil
	}
	b.ceiling = floor
	return b.drain()
}

// Ceiling returns the current release ceiling (meaningful only when gated).
func (b *CommitBuffer) Ceiling() uint64 { return b.ceiling }

// AssignFrontier returns the replica's contiguous assignment frontier: the
// largest A ≥ my_CSN such that this replica holds the assignment for every
// update GSN in (my_CSN, A]. This — not my_GSN, which read snapshots can
// advance past assignments the replica never received — is what an
// AssignAck reports: every GSN at or below A is locally recoverable.
// Meaningful only when gated.
func (b *CommitBuffer) AssignFrontier() uint64 {
	a := b.myCSN
	for {
		if _, ok := b.assigned[a+1]; !ok {
			return a
		}
		a++
	}
}

// ContiguousAssigns returns the assignment-table entries above from,
// contiguous from it (result[i] is the assignment for GSN from+i+1), in
// GSN order. The gateway persists these — the WAL's assign records and the
// snapshot cell's table both require contiguity. The walk starts at
// max(from, my_CSN): entries at or below my_CSN were released and dropped.
// Meaningful only when gated.
func (b *CommitBuffer) ContiguousAssigns(from uint64) []GSNAssign {
	if from < b.myCSN {
		from = b.myCSN
	}
	var out []GSNAssign
	for {
		id, ok := b.assigned[from+1]
		if !ok {
			return out
		}
		from++
		out = append(out, GSNAssign{ID: id, GSN: from, Update: true})
	}
}

// recordAssign notes an update assignment above my_CSN for AssignFrontier.
func (b *CommitBuffer) recordAssign(gsn uint64, id RequestID) {
	if b.gated {
		b.assigned[gsn] = id
	}
}

// ObserveGSN folds any externally learned GSN (e.g. from a read's GSNAssign
// broadcast) into my_GSN.
func (b *CommitBuffer) ObserveGSN(gsn uint64) {
	if gsn > b.myGSN {
		b.myGSN = gsn
	}
}

// AddBody records an update request body. It returns the requests that
// become committable, in commit order.
func (b *CommitBuffer) AddBody(req Request) []Request {
	if gsn, ok := b.pendingGSN[req.ID]; ok {
		delete(b.pendingGSN, req.ID)
		return b.stage(gsn, req)
	}
	if _, dup := b.pendingBody[req.ID]; dup {
		return nil
	}
	b.pendingBody[req.ID] = req
	return nil
}

// AddAssign records a singleton GSN assignment: an update is a window of
// one (AddAssignBatch); a read snapshot only advances my_GSN. It returns the
// requests that become committable, in commit order.
func (b *CommitBuffer) AddAssign(a GSNAssign) []Request {
	if !a.Update {
		b.ObserveGSN(a.GSN)
		return nil
	}
	ids := [1]RequestID{a.ID}
	return b.AddAssignBatch(a.GSN, ids[:])
}

// AddAssignBatch folds a contiguous window of assignments (ids[i] ↦
// first+i) into the buffer with one staging pass and at most one drain,
// and returns the requests that become committable, in commit order. A
// window touches the staged queue once: under group commit a full window
// typically releases in a single drain instead of len(ids) separate map
// probes ending in failure. The returned slice shares the buffer's scratch
// array (see drain).
func (b *CommitBuffer) AddAssignBatch(first uint64, ids []RequestID) []Request {
	if len(ids) == 0 {
		return nil
	}
	b.ObserveGSN(first + uint64(len(ids)) - 1)
	staged := false
	for i, id := range ids {
		gsn := first + uint64(i)
		if gsn <= b.myCSN {
			// Already committed (duplicate assignment after failover).
			delete(b.pendingBody, id)
			continue
		}
		b.recordAssign(gsn, id)
		if req, ok := b.pendingBody[id]; ok {
			delete(b.pendingBody, id)
			b.ready[gsn] = req
			staged = true
			continue
		}
		if _, dup := b.pendingGSN[id]; !dup {
			b.pendingGSN[id] = gsn
		}
	}
	if !staged {
		return nil
	}
	return b.drain()
}

// HasBody reports whether an update body is still waiting for its GSN.
func (b *CommitBuffer) HasBody(id RequestID) bool {
	_, ok := b.pendingBody[id]
	return ok
}

// PendingBodies returns the IDs of update bodies still awaiting a GSN
// assignment; the replica gateway uses it to chase lost assignments after a
// sequencer failover. The result is sorted (client, then sequence number) so
// chase messages go out in a reproducible order, and is valid only until the
// next PendingBodies/PendingAssignments call.
func (b *CommitBuffer) PendingBodies() []RequestID {
	out := b.idScratch[:0]
	for id := range b.pendingBody {
		out = append(out, id)
	}
	b.idScratch = out
	sortRequestIDs(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

// PendingAssignments returns the IDs of GSN assignments whose update bodies
// have not arrived. A body that reached only part of the primary group
// stalls everyone else's commit stream at that GSN; the gateway chases
// these with BodyRequests to its peers. Sorting and slice reuse follow
// PendingBodies.
func (b *CommitBuffer) PendingAssignments() []RequestID {
	out := b.idScratch[:0]
	for id := range b.pendingGSN {
		out = append(out, id)
	}
	b.idScratch = out
	sortRequestIDs(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

// sortRequestIDs orders ids by client then per-client sequence number.
func sortRequestIDs(ids []RequestID) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Client != ids[j].Client {
			return ids[i].Client < ids[j].Client
		}
		return ids[i].Seq < ids[j].Seq
	})
}

// Body returns the buffered body for id, if this replica still holds one.
func (b *CommitBuffer) Body(id RequestID) (Request, bool) {
	req, ok := b.pendingBody[id]
	return req, ok
}

// SkipTo advances my_CSN without emitting commits. A secondary applying a
// lazy state update uses it: the snapshot already contains the effect of
// every update up to the publisher's CSN.
func (b *CommitBuffer) SkipTo(csn uint64) []Request {
	if csn <= b.myCSN {
		return nil
	}
	b.myCSN = csn
	b.ObserveGSN(csn)
	if csn > b.ceiling {
		// A snapshot's state is already majority-committed at its publisher;
		// adopting it implies release up to its CSN.
		b.ceiling = csn
	}
	// Drop staged updates the snapshot already covers, then emit any that
	// became sequential.
	for gsn := range b.ready {
		if gsn <= csn {
			delete(b.ready, gsn)
		}
	}
	if b.gated {
		for gsn := range b.assigned {
			if gsn <= csn {
				delete(b.assigned, gsn)
			}
		}
	}
	return b.drain()
}

func (b *CommitBuffer) stage(gsn uint64, req Request) []Request {
	if gsn <= b.myCSN {
		return nil // stale duplicate
	}
	b.ready[gsn] = req
	return b.drain()
}

// drain emits the commits that have become sequential. The returned slice
// shares the buffer's scratch array and is valid only until the next
// AddBody/AddAssign/SkipTo call.
func (b *CommitBuffer) drain() []Request {
	out := b.drainScratch[:0]
	for {
		if b.gated && b.myCSN+1 > b.ceiling {
			// Replicated-assignment gate: the next GSN is not yet known to
			// be majority-replicated; hold it until the ceiling rises.
			break
		}
		req, ok := b.ready[b.myCSN+1]
		if !ok {
			break
		}
		delete(b.ready, b.myCSN+1)
		b.myCSN++
		if b.gated {
			delete(b.assigned, b.myCSN)
		}
		out = append(out, req)
	}
	b.drainScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}
