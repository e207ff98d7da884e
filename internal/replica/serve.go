package replica

import (
	"hash/fnv"
	"time"

	"aqua/internal/consistency"
	"aqua/internal/node"
)

// jobKind distinguishes work-queue entries.
type jobKind int

const (
	jobUpdate jobKind = iota + 1
	jobRead
)

// job is one unit of work in the replica's single-server queue.
type job struct {
	kind jobKind
	req  consistency.Request
	from node.ID
	gsn  uint64 // update: assigned GSN; read: snapshot GSN
	// dup marks a re-sequenced duplicate update: advance the commit
	// position and reply, but do not apply.
	dup bool
	// arrivedAt is when the request body reached the gateway; tq runs from
	// here, minus the defer wait.
	arrivedAt time.Time
	// deferWait is tb for deferred reads.
	deferWait time.Duration
	// serviceStart is stamped when the job reaches the head of the queue.
	serviceStart time.Time
}

// onRequest handles a client request reaching this gateway.
func (g *Gateway) onRequest(from node.ID, req consistency.Request) {
	now := g.ctx.Now()
	if req.ReadOnly {
		if g.isLeader {
			// The sequencer orders reads and normally never serves them —
			// except as the last live primary, when refusing would leave
			// updates unacknowledgeable and fresh reads unservable.
			g.sequence(from, req)
			if !g.lonePrimary() {
				return
			}
		}
		if pr, ready := g.reads.AddRead(req, from, now); ready {
			g.readReady(pr)
		}
		return
	}

	// Update: every primary member commits it; the leader additionally
	// assigns its GSN.
	if !g.cfg.Primary {
		g.ctx.Logf("replica: secondary received update %s; ignoring", fmtID(req.ID))
		return
	}
	if _, seen := g.bodyArrived[req.ID]; !seen {
		g.bodyArrived[req.ID] = now
	}
	if g.isLeader {
		g.sequence(from, req)
	}
	g.enqueueCommits(g.commit.AddBody(req))
}

// onAssign handles a singleton GSN assignment (a memoized re-issue or a
// read-chase reply) as a window of one.
func (g *Gateway) onAssign(a consistency.GSNAssign) {
	ids := [1]consistency.RequestID{a.ID}
	if a.Update {
		g.onAssignBatch(consistency.GSNAssignBatch{First: a.GSN, Updates: ids[:]})
		return
	}
	g.onAssignBatch(consistency.GSNAssignBatch{ReadGSN: a.GSN, Reads: ids[:]})
}

// onAssignBatch handles an assignment window from the sequencer: the update
// range folds into the commit buffer in one group-commit pass, and every
// read in the window observes the shared frontier snapshot. Secondaries
// ignore the updates: they learn update effects only via lazy updates.
func (g *Gateway) onAssignBatch(ab consistency.GSNAssignBatch) {
	if g.cfg.Primary && len(ab.Updates) > 0 {
		for i, id := range ab.Updates {
			g.observedAssigns.Put(id, ab.First+uint64(i))
		}
		g.enqueueCommits(g.commit.AddAssignBatch(ab.First, ab.Updates))
		g.maybeAckAssigns()
	}
	if len(ab.Reads) > 0 {
		g.commit.ObserveGSN(ab.ReadGSN)
		for _, id := range ab.Reads {
			if pr, ready := g.reads.AddAssign(id, ab.ReadGSN); ready {
				g.readReady(pr)
			}
		}
	}
}

// enqueueCommits moves a run of newly committable updates into the work
// queue, in commit order, and re-examines reads waiting for the commit
// stream. The whole run crosses the durability barrier first (releaseRun):
// a failed append wedges the replica and none of the run becomes visible.
func (g *Gateway) enqueueCommits(commits []consistency.Request) {
	if len(commits) == 0 {
		return
	}
	base := g.commit.MyCSN() - uint64(len(commits))
	now := g.ctx.Now()
	run := g.jobRun[:0]
	for i, req := range commits {
		arrived, ok := g.bodyArrived[req.ID]
		if !ok {
			arrived = now
		}
		delete(g.bodyArrived, req.ID)
		dup := !g.committed.Put(req.ID, struct{}{})
		if !dup {
			g.recentBodies.Put(req.ID, req)
		}
		run = append(run, job{
			kind:      jobUpdate,
			req:       req,
			from:      req.ID.Client,
			gsn:       base + uint64(i) + 1,
			arrivedAt: arrived,
			dup:       dup,
		})
	}
	released := g.releaseRun(run)
	clear(run) // drop the request references; keep the capacity
	g.jobRun = run[:0]
	if !released {
		return
	}
	// Publisher accounting: updates were received/ordered.
	g.updatesSinceBroadcast += len(commits)
	g.updatesSinceLazy += len(commits)
	g.releaseCommitWaiters()
	g.observeDepths()
}

// stateHash digests the application state for anti-entropy comparison.
func (g *Gateway) stateHash() (uint64, bool) {
	snap, err := g.cfg.App.Snapshot()
	if err != nil {
		return 0, false
	}
	h := fnv.New64a()
	h.Write(snap)
	return h.Sum64(), true
}

// onDigest compares the sequencer's anti-entropy beacon against local
// state: same position, different bytes means this replica sits on the
// losing side of a re-sequencing window — resynchronize.
func (g *Gateway) onDigest(from node.ID, d consistency.DigestAnnounce) {
	if g.isLeader || !g.cfg.Primary {
		return
	}
	if g.applied != d.Applied {
		return // position mismatch: the gap/stuck recovery paths own this
	}
	if h, ok := g.stateHash(); ok && h != d.Hash {
		g.ctx.Logf("replica: state digest mismatch at %d; resyncing", d.Applied)
		g.stack.Send(from, consistency.SyncRequest{})
	}
}

// recentCommittedIDs returns the newest committed request IDs, up to
// recentIDsLimit, for snapshot transfer.
func (g *Gateway) recentCommittedIDs() []consistency.RequestID {
	out := make([]consistency.RequestID, 0, min(g.committed.Len(), recentIDsLimit))
	return g.committed.Recent(out, recentIDsLimit)
}

// onBodyRequest serves a peer's missing update body from the commit buffer
// or the recent-commit log by re-sending the original Request.
func (g *Gateway) onBodyRequest(from node.ID, br consistency.BodyRequest) {
	if req, ok := g.commit.Body(br.ID); ok {
		g.stack.Send(from, req)
		return
	}
	if req, ok := g.recentBodies.Get(br.ID); ok {
		g.stack.Send(from, req)
	}
}

// readReady runs the staleness check of Section 4.1.2 once a read has both
// its body and its GSN.
func (g *Gateway) readReady(pr consistency.PendingRead) {
	staleness := int64(pr.GSN) - int64(g.commit.MyCSN())
	g.ins.stalenessAtRead.Observe(float64(staleness))
	if staleness <= int64(pr.Req.Staleness) {
		if g.canFastServe(pr) {
			g.serveReadFast(pr)
			return
		}
		g.enqueueRead(pr)
		return
	}
	if g.cfg.Primary {
		// A primary converges through its own commit stream: hold the read
		// until my_CSN catches up (its assignments are already in flight).
		g.commitWaiters = append(g.commitWaiters, pr)
		return
	}
	// Secondary: deferred read until the next lazy update (tb starts now).
	g.ins.readsDeferred.Inc()
	g.reads.Defer(pr, g.ctx.Now())
	g.observeDepths()
}

// releaseCommitWaiters re-checks primary-held reads after CSN advances.
func (g *Gateway) releaseCommitWaiters() {
	if len(g.commitWaiters) == 0 {
		return
	}
	var still []consistency.PendingRead
	for _, pr := range g.commitWaiters {
		if int64(pr.GSN)-int64(g.commit.MyCSN()) <= int64(pr.Req.Staleness) {
			g.enqueueRead(pr)
		} else {
			still = append(still, pr)
		}
	}
	g.commitWaiters = still
}

// canFastServe gates the frontier fast path: the read's snapshot GSN is
// already committed locally (a frontier hit, not merely within the client's
// staleness bound), the single-server queue is idle with no simulated
// service delay to draw, and the read was never deferred. Under those
// conditions serving inline is indistinguishable from a zero-delay pass
// through the queue — minus the job staging.
func (g *Gateway) canFastServe(pr consistency.PendingRead) bool {
	return g.cfg.FastReads && g.cfg.ServiceDelay == nil &&
		!g.busy && len(g.queue) == 0 &&
		pr.GSN <= g.commit.MyCSN() && pr.DeferredAt.IsZero()
}

// serveReadFast answers a frontier read inline: no job allocation, no queue
// pass, no deferred-read machinery — the application read and the reply
// are all that remains. A tracer gets the same serve_read span a zero-delay
// queue pass would have recorded.
func (g *Gateway) serveReadFast(pr consistency.PendingRead) {
	tq := g.ctx.Now().Sub(pr.ArrivedAt)
	if tq < 0 {
		tq = 0
	}
	result, err := g.cfg.App.Read(pr.Req.Method, pr.Req.Payload)
	g.fastServed++
	g.ins.readsServed.Inc()
	g.ins.fastReads.Inc()
	if g.cfg.OnServeRead != nil {
		g.cfg.OnServeRead(pr.Req.ID, pr.GSN, g.commit.MyCSN(), pr.Req.Staleness, false)
	}
	g.stack.Send(pr.From, consistency.Reply{
		ID:      pr.Req.ID,
		Payload: result,
		Err:     errString(err),
		T1:      tq,
		CSN:     g.commit.MyCSN(),
		Replica: g.ctx.ID(),
	})
	g.publishPerf(0, tq, 0)
	g.ins.serviceTimeHist.Observe(0)
	if g.cfg.Tracer != nil {
		j := job{kind: jobRead, req: pr.Req, gsn: pr.GSN}
		g.recordServeSpan(&j, 0, float64(tq)/1e6)
	}
}

func (g *Gateway) enqueueRead(pr consistency.PendingRead) {
	var deferWait time.Duration
	if !pr.DeferredAt.IsZero() {
		deferWait = g.ctx.Now().Sub(pr.DeferredAt)
	}
	g.enqueue(job{
		kind:      jobRead,
		req:       pr.Req,
		from:      pr.From,
		gsn:       pr.GSN,
		arrivedAt: pr.ArrivedAt,
		deferWait: deferWait,
	})
}

// enqueue adds a job to the single-server queue and starts it if idle.
func (g *Gateway) enqueue(j job) {
	g.queue = append(g.queue, j)
	g.startNext()
	g.observeDepths()
}

func (g *Gateway) startNext() {
	if g.busy || len(g.queue) == 0 {
		return
	}
	g.busy = true
	j := g.queue[0]
	g.queue = g.queue[1:]
	j.serviceStart = g.ctx.Now()

	var delay time.Duration
	if g.cfg.ServiceDelay != nil && !(g.isLeader && j.kind == jobUpdate && !g.lonePrimary()) {
		// The sequencer's silent commits carry no simulated load: in the
		// paper it does not service requests at all. A lone surviving
		// primary, however, really is serving.
		delay = g.cfg.ServiceDelay(g.ctx.Rand())
	}
	g.ctx.Post(delay, func() { g.complete(j) })
}

// complete finishes a job: executes the application call, replies, and (for
// reads) publishes the measurements.
func (g *Gateway) complete(j job) {
	now := g.ctx.Now()
	ts := now.Sub(j.serviceStart)
	tq := j.serviceStart.Sub(j.arrivedAt) - j.deferWait
	if tq < 0 {
		tq = 0
	}

	switch j.kind {
	case jobUpdate:
		var result []byte
		var err error
		if j.gsn > g.applied && !j.dup {
			result, err = g.cfg.App.ApplyUpdate(j.req.Method, j.req.Payload)
			g.ins.updatesApplied.Inc()
			if g.cfg.OnApply != nil {
				g.cfg.OnApply(j.gsn, j.req.ID)
			}
		}
		if j.gsn > g.applied {
			g.applied = j.gsn
		}
		g.maybeCompact()
		// A job at or below g.applied was subsumed by a state snapshot
		// restored while it sat in the queue: applying it again would
		// corrupt the newer state. The reply (from restored state) still
		// serves the client.
		if !g.isLeader || g.lonePrimary() {
			g.stack.Send(j.from, consistency.Reply{
				ID:      j.req.ID,
				Payload: result,
				Err:     errString(err),
				T1:      ts + tq,
				CSN:     g.applied,
				Replica: g.ctx.ID(),
			})
		}
	case jobRead:
		result, err := g.cfg.App.Read(j.req.Method, j.req.Payload)
		g.ins.readsServed.Inc()
		if g.cfg.OnServeRead != nil {
			g.cfg.OnServeRead(j.req.ID, j.gsn, g.commit.MyCSN(), j.req.Staleness, j.deferWait > 0)
		}
		g.stack.Send(j.from, consistency.Reply{
			ID:       j.req.ID,
			Payload:  result,
			Err:      errString(err),
			T1:       ts + tq + j.deferWait,
			CSN:      g.commit.MyCSN(),
			Replica:  g.ctx.ID(),
			Deferred: j.deferWait > 0,
		})
		g.publishPerf(ts, tq, j.deferWait)
	}
	g.ins.serviceTimeHist.Observe(float64(ts) / 1e6)
	if g.cfg.Tracer != nil {
		g.recordServeSpan(&j, float64(ts)/1e6, float64(tq)/1e6)
	}

	g.busy = false
	g.startNext()
	g.observeDepths()
}

// publishPerf broadcasts newly measured (ts, tq, tb) to every client, with
// the lazy publisher's update-arrival statistics when applicable
// (Section 5.4).
func (g *Gateway) publishPerf(ts, tq, tb time.Duration) {
	now := g.ctx.Now()
	pb := consistency.PerfBroadcast{
		Replica:   g.ctx.ID(),
		TS:        ts,
		TQ:        tq,
		TB:        tb,
		Deferred:  tb > 0,
		Primary:   g.cfg.Primary,
		Sequencer: g.sequencerID,
	}
	if g.isPublisher {
		pb.IsPublisher = true
		pb.NU = g.updatesSinceBroadcast
		pb.TU = now.Sub(g.lastBroadcastAt)
		pb.NL = g.updatesSinceLazy
		pb.TL = now.Sub(g.lastLazyAt)
		g.updatesSinceBroadcast = 0
		g.lastBroadcastAt = now
	}
	g.ins.perfBroadcasts.Inc()
	for _, c := range g.cfg.Clients {
		g.stack.Send(c, pb)
	}
}

// onSyncRequest serves a state snapshot to a bootstrapping or recovering
// replica. Any primary answers (a restarted sequencer has no one above it
// to ask); a stale answer is harmless — StateUpdate application is
// monotone in CSN, and the requester re-chases if a gap remains.
func (g *Gateway) onSyncRequest(from node.ID) {
	if !g.cfg.Primary {
		return
	}
	snapshot, err := g.cfg.App.Snapshot()
	if err != nil {
		g.ctx.Logf("replica: sync snapshot failed: %v", err)
		return
	}
	g.stack.Send(from, consistency.StateUpdate{
		CSN:       g.applied,
		Snapshot:  snapshot,
		RecentIDs: g.recentCommittedIDs(),
	})
}

// onStateUpdate applies a state propagation: the lazy update at a secondary
// (Section 4.1.2) or a recovery snapshot at any replica. Restore the
// snapshot, advance my_CSN, then serve whatever reads the fresh state
// satisfies.
func (g *Gateway) onStateUpdate(su consistency.StateUpdate) {
	if su.CSN < g.commit.MyCSN() {
		return // stale propagation
	}
	if su.CSN == g.commit.MyCSN() {
		// Same position: normally a duplicate, but after a re-sequencing
		// window two replicas can hold different states at the same
		// position — the anti-entropy path corrects that here.
		if own, err := g.cfg.App.Snapshot(); err == nil && string(own) == string(su.Snapshot) {
			return
		}
	}
	if err := g.cfg.App.Restore(su.Snapshot); err != nil {
		g.ctx.Logf("replica: state update restore failed: %v", err)
		return
	}
	if g.cfg.OnRestore != nil {
		g.cfg.OnRestore(su.CSN)
	}
	for _, id := range su.RecentIDs {
		g.committed.Put(id, struct{}{})
	}
	// The installed snapshot subsumes the log: persist it as the new
	// durable baseline (the cell is written before the log reset, so a
	// crash between the two leaves only subsumed records behind). Failure
	// wedges the replica: nothing past this point may become visible.
	if !g.walSaveSnapshot(su.CSN, su.Snapshot, su.RecentIDs) {
		return
	}
	if g.isLeader && g.seqState != nil {
		// A snapshot proves history at least this deep exists; never
		// assign below it.
		g.seqState.Resume(su.CSN)
	}
	// Updates staged above the snapshot become sequential: log them as one
	// run and queue them (the apply guard in complete() keeps ordering safe).
	var run []job
	for i, req := range g.commit.SkipTo(su.CSN) {
		g.recentBodies.Put(req.ID, req)
		run = append(run, job{kind: jobUpdate, req: req, from: req.ID.Client,
			gsn: su.CSN + uint64(i) + 1, arrivedAt: g.ctx.Now()})
	}
	if !g.releaseRun(run) {
		return
	}
	if su.CSN > g.applied {
		g.applied = su.CSN
	}
	g.releaseCommitWaiters()
	for _, pr := range g.reads.DrainDeferred() {
		if int64(pr.GSN)-int64(g.commit.MyCSN()) <= int64(pr.Req.Staleness) {
			g.enqueueRead(pr)
		} else {
			// Still too stale (a can be 0 while updates raced ahead):
			// keep deferring; DeferredAt is preserved so tb accumulates.
			g.redefer(pr)
		}
	}
}

func (g *Gateway) redefer(pr consistency.PendingRead) {
	saved := pr.DeferredAt
	g.reads.Defer(pr, saved)
}

// scheduleLazyTick arms the publisher's periodic propagation timer.
func (g *Gateway) scheduleLazyTick() {
	if g.lazyTimerSet {
		return
	}
	g.lazyTimerSet = true
	g.ctx.Post(g.cfg.LazyInterval, g.lazyFn)
}

// lazyTick propagates the publisher's applied state to every secondary.
// With no secondary there is no one to send it to, so the tick takes no
// snapshot; it still counts and re-arms.
func (g *Gateway) lazyTick() {
	g.lazyTimerSet = false
	if !g.isPublisher || g.wedged {
		return // role moved on; the new publisher has its own timer
	}
	g.ins.lazyTicks.Inc()
	g.ins.lazyBatchHist.Observe(float64(g.updatesSinceLazy))
	if len(g.cfg.Secondaries) > 0 {
		snapshot, err := g.cfg.App.Snapshot()
		if err != nil {
			g.ctx.Logf("replica: snapshot failed: %v", err)
		} else {
			su := consistency.StateUpdate{
				CSN:       g.applied,
				Snapshot:  snapshot,
				RecentIDs: g.recentCommittedIDs(),
			}
			for _, id := range g.cfg.Secondaries {
				g.stack.Send(id, su)
			}
		}
	}
	g.updatesSinceLazy = 0
	g.lastLazyAt = g.ctx.Now()
	g.scheduleLazyTick()
}
