package replica

import (
	"time"

	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
)

// heldRequest is a request whose sequencing is postponed while a takeover's
// GSNQuery round is in flight.
type heldRequest struct {
	from node.ID
	req  consistency.Request
}

// onPrimaryView reacts to primary-group membership changes: sequencer
// (leader) takeover and lazy-publisher designation. The rules are
// deterministic over the view so every member converges without extra
// agreement rounds: the leader is the lowest live member; the publisher is
// the lowest live non-leader member (or the leader itself in a singleton
// view).
func (g *Gateway) onPrimaryView(v group.View) {
	self := g.ctx.ID()

	if v.Leader == self {
		if !g.isLeader {
			g.becomeSequencer()
		}
	} else if g.isLeader {
		// Deposed (e.g. a heal revealed a lower-ID member): stop
		// sequencing; the rightful leader announces itself.
		g.isLeader = false
		g.seqReady = false
	}
	if v.Leader != "" {
		g.sequencerID = v.Leader
	}

	publisher := v.Leader
	for _, m := range v.Members {
		if m != v.Leader {
			publisher = m
			break
		}
	}
	if publisher == self && !g.isPublisher {
		g.isPublisher = true
		g.lastLazyAt = g.ctx.Now()
		g.updatesSinceLazy = 0
		g.scheduleLazyTick()
	} else if publisher != self {
		g.isPublisher = false
	}
}

// becomeSequencer starts a takeover: a GSNQuery round over the live
// primaries so assignments resume above every GSN any survivor has seen.
// The round always runs — a process cannot distinguish the deployment's
// first boot from its own restart, and a restarted sequencer that skipped
// the round would reissue GSNs from zero. It completes as soon as every
// queried peer reports (a few network round trips at first boot) or at the
// takeover timeout.
func (g *Gateway) becomeSequencer() {
	g.isLeader = true
	if g.seqState == nil {
		g.seqState = consistency.NewSequencerState(0)
	}

	g.epoch++
	g.seqReady = false
	g.orderTracker = nil // fresh ack quorum per sequencer era
	g.takeoverMax = g.commit.MyGSN()
	g.takeoverReported = nil
	peers := g.livePrimaryPeers()
	await := len(peers)
	if g.cfg.ReplicatedAssign {
		// Safety requires reports from a genuine majority of the full
		// primary group (self included): that set intersects the ack quorum
		// behind every released floor, so the report merge re-covers
		// everything the application could have observed. The requirement
		// does not shrink when peers are down — proceeding with fewer
		// reports than majority-1 would void the intersection argument and
		// let assignments vanish behind a released floor. With too few live
		// peers the takeover waits, re-querying on the timeout and chase
		// ticks until enough members recover (the fault schedules repair
		// every crash, so this blocks only while a majority is genuinely
		// unreachable — exactly when resuming would be unsafe).
		await = len(g.cfg.PrimaryGroup) / 2
	}
	if await == 0 {
		g.finishTakeover()
		return
	}
	g.takeoverAwait = await
	epoch := g.epoch
	for _, id := range peers {
		g.stack.Send(id, consistency.GSNQuery{Epoch: epoch})
	}
	if g.takeoverDone != nil {
		g.takeoverDone()
	}
	var onTimeout func()
	onTimeout = func() {
		if !g.isLeader || g.seqReady || epoch != g.epoch {
			return
		}
		if g.cfg.ReplicatedAssign && g.takeoverAwait > 0 {
			// Short of a majority: re-query whoever is reachable and keep
			// waiting. Never finish below quorum.
			for _, id := range g.livePrimaryPeers() {
				g.stack.Send(id, consistency.GSNQuery{Epoch: epoch})
			}
			g.takeoverDone = g.ctx.SetTimer(takeoverTimeout, onTimeout)
			return
		}
		g.finishTakeover()
	}
	g.takeoverDone = g.ctx.SetTimer(takeoverTimeout, onTimeout)
}

func (g *Gateway) onGSNReport(from node.ID, r consistency.GSNReport) {
	if !g.isLeader || r.Epoch != g.epoch {
		return
	}
	// Merge the survivor's assignment table before anything else: every
	// released assignment is held by a majority, and this round reaches
	// one, so the merged memo re-covers it (chases then re-issue original
	// numbers instead of re-sequencing).
	g.mergeReportAssigns(r.Assigns)
	if g.seqReady {
		// Late report (its link was recovering during the round): fold it
		// in — Resume is monotone, so this can only correct a takeover
		// that undershot, and a state sync closes the history gap.
		if r.GSN > g.seqState.GSN() {
			g.seqState.Resume(r.GSN)
			for _, id := range g.livePrimaryPeers() {
				g.stack.Send(id, consistency.SyncRequest{})
			}
		}
		return
	}
	if r.GSN > g.takeoverMax {
		g.takeoverMax = r.GSN
	}
	if g.takeoverReported[from] {
		return // duplicate (a re-queried peer answers again): one vote each
	}
	if g.takeoverReported == nil {
		g.takeoverReported = make(map[node.ID]bool)
	}
	g.takeoverReported[from] = true
	g.takeoverAwait--
	if g.takeoverAwait <= 0 {
		if g.takeoverDone != nil {
			g.takeoverDone()
		}
		g.finishTakeover()
	}
}

func (g *Gateway) finishTakeover() {
	g.seqState.Resume(g.takeoverMax)
	g.seqReady = true
	g.ctx.Logf("replica: sequencer takeover complete at GSN %d", g.seqState.GSN())

	// A restarted (or long-partitioned) leader may be behind the history it
	// now sequences: recover state from the surviving primaries.
	if g.commit.MyCSN() < g.takeoverMax {
		for _, id := range g.livePrimaryPeers() {
			g.stack.Send(id, consistency.SyncRequest{})
		}
	}

	// Tell every replica and client who sequences now.
	ann := consistency.SequencerAnnounce{Sequencer: g.ctx.ID()}
	for _, id := range g.replicaTargets() {
		g.stack.Send(id, ann)
	}
	for _, id := range g.cfg.Clients {
		g.stack.Send(id, ann)
	}

	held := g.heldRequests
	g.heldRequests = nil
	for _, h := range held {
		g.sequence(h.from, h.req)
	}
	// Fold the new leader's own assignment frontier into the fresh-era
	// tracker so the floor resumes rising without waiting for traffic.
	g.maybeAckAssigns()
}

func (g *Gateway) livePrimaryPeers() []node.ID {
	v, ok := g.stack.ViewOf(PrimaryGroupName)
	if !ok {
		return g.otherPrimaries()
	}
	var out []node.ID
	for _, id := range v.Members {
		if id != g.ctx.ID() {
			out = append(out, id)
		}
	}
	return out
}

// sequence performs the sequencer's part of request processing
// (Sections 4.1.1 and 4.1.2): every request joins the assignment window.
func (g *Gateway) sequence(from node.ID, req consistency.Request) {
	if !g.seqReady {
		g.heldRequests = append(g.heldRequests, heldRequest{from: from, req: req})
		return
	}
	g.batchRequest(req)
}

// broadcastReadAssign sends a singleton read-snapshot assignment to every
// replica and feeds the local read pipeline (needed when this node also
// serves as the lone surviving primary; otherwise a bounded memo).
func (g *Gateway) broadcastReadAssign(a consistency.GSNAssign) {
	for _, id := range g.replicaTargets() {
		g.stack.Send(id, a)
	}
	g.onAssign(a)
}

// broadcastUpdateAssign sends a singleton update assignment to the other
// primaries. The sequencer also tracks commits locally (it never replies,
// but its state must stay current so a later takeover by another member —
// or a failback — never regresses, and so its own GSNReports are accurate).
func (g *Gateway) broadcastUpdateAssign(a consistency.GSNAssign) {
	for _, id := range g.otherPrimaries() {
		g.stack.Send(id, a)
	}
	g.onAssign(a)
}

// batchRequest adds a request to the accumulating assignment window,
// flushing a full window immediately and arming the window timer otherwise.
// With AssignBatch <= 1 every window is full at one request, so each one
// is assigned and broadcast the instant it arrives — the paper's
// per-request protocol.
func (g *Gateway) batchRequest(req consistency.Request) {
	if req.ReadOnly {
		g.batchReads = append(g.batchReads, req.ID)
	} else {
		g.batchUpdates = append(g.batchUpdates, req.ID)
	}
	if len(g.batchUpdates)+len(g.batchReads) >= g.cfg.AssignBatch {
		g.flushAssignBatch()
		return
	}
	if !g.batchFlushArmed {
		g.batchFlushArmed = true
		g.ctx.Post(g.cfg.AssignBatchWindow, g.batchFlushFn)
	}
}

// flushAssignBatch assigns the pending window and broadcasts it as one
// GSNAssignBatch: a contiguous GSN range for the fresh updates, one shared
// snapshot at the post-update frontier for the reads. Requests some
// sequencer already numbered (retransmissions, chase re-issues) are
// re-broadcast as singleton GSNAssigns so they keep their original
// positions: re-sequencing would let replicas apply them at different GSNs.
func (g *Gateway) flushAssignBatch() {
	if len(g.batchUpdates)+len(g.batchReads) == 0 {
		return
	}
	if !g.isLeader || !g.seqReady || g.wedged {
		// Deposed mid-window (or fail-stopped): drop the batch. The replicas
		// holding these requests chase the new sequencer with GSNRequests.
		g.batchUpdates = g.batchUpdates[:0]
		g.batchReads = g.batchReads[:0]
		return
	}
	g.seqState.Resume(g.commit.MyGSN())

	// Partition updates: cross-era duplicates re-issue their observed GSN;
	// the rest go to the sequencer state, which filters its own memo.
	var dups []consistency.GSNAssign
	candidates := g.batchFresh[:0]
	for _, id := range g.batchUpdates {
		if gsn, seen := g.observedAssigns.Get(id); seen {
			dups = append(dups, consistency.GSNAssign{ID: id, GSN: gsn, Update: true})
			continue
		}
		candidates = append(candidates, id)
	}
	g.batchFresh = candidates
	first, fresh, memoDups := g.seqState.AssignUpdateBatch(candidates)
	dups = append(dups, memoDups...) // copies out of the sequencer's scratch
	for range fresh {
		g.ins.gsnAssigned.Inc()
	}

	// Snapshot every read at the window frontier; a read memoized in an
	// earlier window keeps its original (lower) snapshot as a singleton.
	frontier := g.seqState.GSN()
	var reads []consistency.RequestID
	for _, id := range g.batchReads {
		g.ins.readSnapshots.Inc()
		if gsn := g.seqState.SnapshotRead(id); gsn != frontier {
			dups = append(dups, consistency.GSNAssign{ID: id, GSN: gsn})
			continue
		}
		reads = append(reads, id)
	}

	n := len(g.batchUpdates) + len(g.batchReads)
	g.assignFlushes++
	g.assignFlushedReqs += uint64(n)
	g.ins.assignBatchHist.Observe(float64(n))
	g.batchUpdates = g.batchUpdates[:0]
	g.batchReads = g.batchReads[:0]

	// The message owns fresh copies: on the in-memory runtime receivers
	// share the slices, and the sequencer's scratch is reused next flush.
	batch := consistency.GSNAssignBatch{
		First:   first,
		Updates: append([]consistency.RequestID(nil), fresh...),
		ReadGSN: frontier,
		Reads:   reads,
	}

	// Broadcast the window, then the re-issued numbers as singletons.
	// Windows carrying read snapshots go to every replica (the secondaries
	// need ReadGSN); update-only windows concern the primary group alone,
	// matching the singleton routing.
	if len(batch.Updates) > 0 || len(batch.Reads) > 0 {
		targets := g.otherPrimaries()
		if len(batch.Reads) > 0 {
			targets = g.replicaTargets()
		}
		var msg node.Message = batch // boxed once for every target
		for _, id := range targets {
			g.stack.Send(id, msg)
		}
		g.onAssignBatch(batch)
	}
	for _, a := range dups {
		if a.Update {
			g.broadcastUpdateAssign(a)
		} else {
			g.broadcastReadAssign(a)
		}
	}
}

// onGSNRequest services a chase: a replica holds a request whose assignment
// never arrived (typically lost with a crashed sequencer).
func (g *Gateway) onGSNRequest(from node.ID, r consistency.GSNRequest) {
	if !g.isLeader {
		// Not the sequencer: forward the chase to whoever we believe is.
		if g.sequencerID != g.ctx.ID() && g.sequencerID != "" && from != g.sequencerID {
			g.stack.Send(g.sequencerID, r)
		}
		return
	}
	if !g.seqReady {
		g.heldRequests = append(g.heldRequests, heldRequest{
			from: from,
			req:  consistency.Request{ID: r.ID, ReadOnly: !r.Update},
		})
		return
	}
	// An update chase joins the assignment window like a first-time request;
	// its flush re-issues any number the group already holds and broadcasts
	// it to every primary. A read chase is answered to the chaser alone, at
	// the snapshot the sequencer memoized for it (or the current frontier).
	if r.Update {
		g.batchRequest(consistency.Request{ID: r.ID})
		return
	}
	g.stack.Send(from, consistency.GSNAssign{ID: r.ID, GSN: g.seqState.SnapshotRead(r.ID)})
}

// maxChasePerTick bounds recovery traffic per chase tick. Chases exist to
// recover the rare assignment lost with a crashed sequencer; under heavy
// traffic a saturated ordering pipeline can leave tens of thousands of
// requests legitimately waiting, and chasing every one of them each tick
// turns overload into a recovery storm that amplifies itself (each update
// chase triggers a re-broadcast to every primary). The bound keeps recovery
// bandwidth constant; anything beyond it is chased on later ticks, so
// liveness is unaffected.
const maxChasePerTick = 128

// takeoverTimeout bounds one GSNQuery round during sequencer failover.
const takeoverTimeout = 300 * time.Millisecond

// recoveryGap is the commit-stream gap (my_GSN − my_CSN) beyond which a
// replica assumes it missed history (e.g. it restarted) and pulls a state
// snapshot.
const recoveryGap = 32

// chaseTick periodically re-requests GSN assignments for requests that have
// been buffered longer than the chase interval.
func (g *Gateway) chaseTick() {
	if g.wedged {
		return // fail-stopped: go silent, and stop re-arming the tick
	}
	cutoff := g.ctx.Now().Add(-g.cfg.ChaseInterval)
	if !g.isLeader && g.sequencerID != g.ctx.ID() && g.sequencerID != "" {
		budget := maxChasePerTick
		for _, id := range g.reads.AwaitingGSN(cutoff) {
			if budget == 0 {
				break
			}
			budget--
			g.stack.Send(g.sequencerID, consistency.GSNRequest{ID: id})
		}
		for _, id := range g.commit.PendingBodies() {
			if budget == 0 {
				break
			}
			if at, ok := g.bodyArrived[id]; ok && at.Before(cutoff) {
				budget--
				g.stack.Send(g.sequencerID, consistency.GSNRequest{ID: id, Update: true})
			}
		}
	}
	// Track commit-stream progress for stuck detection.
	now := g.ctx.Now()
	if csn := g.commit.MyCSN(); csn != g.lastCSN {
		g.lastCSN = csn
		g.lastCSNAt = now
	}
	// Pull a snapshot when this replica has missed history: a large gap
	// (it restarted or rejoined after a partition), or a stream that is
	// ahead-but-stuck — a hole whose body and assignment both died with a
	// crashed sequencer, which no per-request chase can fill.
	stuck := g.commit.Staleness() > 0 && now.Sub(g.lastCSNAt) > 2*g.cfg.ChaseInterval
	if g.commit.Staleness() > recoveryGap || stuck {
		if g.isLeader {
			// A leader heals from its peers (any primary answers).
			for _, id := range g.livePrimaryPeers() {
				g.stack.Send(id, consistency.SyncRequest{})
			}
		} else if g.sequencerID != g.ctx.ID() && g.sequencerID != "" {
			g.stack.Send(g.sequencerID, consistency.SyncRequest{})
		}
	}
	// A leader also re-queries peers periodically until it has heard from
	// everyone it still awaits: takeover rounds can complete on the timeout
	// while a recovering peer's higher GSN is still in flight, and a
	// replicated-assign takeover blocked below quorum needs the queries to
	// reach peers as they come back.
	if g.isLeader && g.takeoverAwait > 0 {
		for _, id := range g.livePrimaryPeers() {
			g.stack.Send(id, consistency.GSNQuery{Epoch: g.epoch})
		}
	}
	// Replicated assignment: re-send the current frontier each tick (acks
	// ride an unreliable path — a lost ack must not stall the floor), and
	// the leader re-evaluates its own frontier's contribution and
	// retransmits the current floor (a lost OrderCommit must not leave
	// followers holding fully-assigned commits below it forever — floors
	// are only otherwise sent when they rise).
	if g.cfg.ReplicatedAssign && g.cfg.Primary {
		if g.isLeader {
			g.maybeAckAssigns()
			if g.seqReady && g.lastFloor > 0 {
				oc := consistency.OrderCommit{Epoch: g.epoch, Floor: g.lastFloor}
				for _, id := range g.otherPrimaries() {
					g.stack.Send(id, oc)
				}
			}
		} else {
			g.walLogAssigns()
			if f := g.ackableFrontier(); f > 0 {
				g.lastAckedFrontier = f
				g.sendAssignAck(f)
			}
		}
	}
	// Anti-entropy beacon: the sequencer publishes its state digest so a
	// primary that diverged inside a re-sequencing window detects it and
	// resynchronizes.
	if g.isLeader && g.seqReady && !g.busy {
		if h, ok := g.stateHash(); ok {
			d := consistency.DigestAnnounce{Applied: g.applied, Hash: h}
			for _, id := range g.livePrimaryPeers() {
				g.stack.Send(id, d)
			}
		}
	}
	// Assignments stuck without bodies stall the commit stream; recover
	// the bodies from peer primaries (any role does this, leader included).
	if g.cfg.Primary {
		budget := maxChasePerTick
		for _, id := range g.commit.PendingAssignments() {
			if budget == 0 {
				break
			}
			budget--
			for _, peer := range g.otherPrimaries() {
				g.stack.Send(peer, consistency.BodyRequest{ID: id})
			}
		}
	}
	g.ctx.Post(g.cfg.ChaseInterval, g.chaseFn)
}

// lonePrimary reports whether this node is the only live member of the
// primary group — the degenerate case where the sequencer must also serve.
func (g *Gateway) lonePrimary() bool {
	v, ok := g.stack.ViewOf(PrimaryGroupName)
	return ok && len(v.Members) == 1 && v.Leader == g.ctx.ID()
}
