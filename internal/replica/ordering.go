package replica

import (
	"aqua/internal/consistency"
	"aqua/internal/node"
)

// Replicated GSN assignment (DESIGN.md §14). Followers acknowledge their
// contiguous assignment frontier to the sequencer (AssignAck); the
// sequencer folds the acks into an OrderTracker and broadcasts the majority
// floor (OrderCommit); commit buffers release only up to the floor. A
// released commit's assignment is therefore held by a majority of the
// primary group, every takeover quorum intersects that majority, and the
// takeover's GSNReport merge re-learns it — sequencer death leaves no
// assignment hole behind anything the application observed.

// maybeAckAssigns runs after any event that can extend this primary's
// contiguous assignment frontier: re-evaluate the floor (when sequencing —
// the tracker takes the leader's own frontier as Floor's self, so the
// leader is counted once) or acknowledge it to the sequencer. An ack is
// a durable promise — on a durable replica the assignments are WAL-logged
// first and the acked frontier never exceeds what the log holds, so the
// frontier survives this node's own crash-recovery (the takeover-quorum
// intersection argument needs acks that outlive their acker's incarnation,
// not just its era).
func (g *Gateway) maybeAckAssigns() {
	if !g.cfg.ReplicatedAssign || !g.cfg.Primary || g.wedged {
		return
	}
	g.walLogAssigns()
	if g.isLeader {
		g.maybeOrderCommit()
		return
	}
	f := g.ackableFrontier()
	if f <= g.lastAckedFrontier {
		return
	}
	g.lastAckedFrontier = f
	g.sendAssignAck(f)
}

func (g *Gateway) sendAssignAck(f uint64) {
	if g.sequencerID == "" || g.sequencerID == g.ctx.ID() {
		return
	}
	g.stack.Send(g.sequencerID, consistency.AssignAck{Epoch: g.epoch, Frontier: f})
}

// onAssignAck folds a follower's acknowledged frontier (leader only).
func (g *Gateway) onAssignAck(from node.ID, a consistency.AssignAck) {
	if !g.isLeader || !g.cfg.ReplicatedAssign {
		return
	}
	g.orderObserve(from, a.Frontier)
}

// orderObserve updates one follower's acked frontier and re-evaluates the
// majority floor.
func (g *Gateway) orderObserve(peer node.ID, frontier uint64) {
	g.tracker().Observe(peer, frontier)
	g.maybeOrderCommit()
}

// tracker returns this sequencer era's order tracker, creating it on first
// use.
func (g *Gateway) tracker() *consistency.OrderTracker {
	if g.orderTracker == nil {
		g.orderTracker = consistency.NewOrderTracker(len(g.cfg.PrimaryGroup))
	}
	return g.orderTracker
}

// maybeOrderCommit recomputes the majority floor and, when it rises,
// broadcasts the release and drains the leader's own buffer up to it.
// lastFloor survives role changes, so a re-elected leader never broadcasts
// a floor below one the group already released.
func (g *Gateway) maybeOrderCommit() {
	floor := g.tracker().Floor(g.ackableFrontier())
	if floor <= g.lastFloor {
		return
	}
	g.lastFloor = floor
	g.orderCommitsSent++
	g.ins.orderCommits.Inc()
	oc := consistency.OrderCommit{Epoch: g.epoch, Floor: floor}
	for _, id := range g.otherPrimaries() {
		g.stack.Send(id, oc)
	}
	g.enqueueCommits(g.commit.SetCeiling(floor))
}

// OrderCommits reports how many majority-floor broadcasts this gateway has
// issued as sequencer — tests assert the replicated ordering actually
// engaged rather than passing vacuously.
func (g *Gateway) OrderCommits() uint64 { return g.orderCommitsSent }

// onOrderCommit raises the local release ceiling to the majority floor and
// drains whatever becomes releasable.
func (g *Gateway) onOrderCommit(oc consistency.OrderCommit) {
	if !g.cfg.ReplicatedAssign || !g.cfg.Primary {
		return
	}
	if oc.Floor > g.lastFloor {
		g.lastFloor = oc.Floor
	}
	g.enqueueCommits(g.commit.SetCeiling(oc.Floor))
}

// buildGSNReport answers a takeover GSNQuery. Under replicated assignment
// the report additionally carries the recent assignment memo, so the new
// sequencer merges every survivor's table before it resumes assigning.
func (g *Gateway) buildGSNReport(epoch uint64) consistency.GSNReport {
	r := consistency.GSNReport{Epoch: epoch, GSN: g.commit.MyGSN()}
	if g.cfg.ReplicatedAssign && g.cfg.Primary {
		const maxReport = 1024
		ids := g.observedAssignsOrder
		if len(ids) > maxReport {
			ids = ids[len(ids)-maxReport:]
		}
		for _, id := range ids {
			r.Assigns = append(r.Assigns, consistency.GSNAssign{
				ID: id, GSN: g.observedAssigns[id], Update: true,
			})
		}
	}
	return r
}

// mergeReportAssigns folds a survivor's assignment table into the new
// sequencer's memo and commit buffer during takeover.
func (g *Gateway) mergeReportAssigns(assigns []consistency.GSNAssign) {
	if !g.cfg.ReplicatedAssign {
		return
	}
	for _, a := range assigns {
		g.observeAssign(a.ID, a.GSN)
		g.enqueueCommits(g.commit.AddAssign(a))
	}
	g.maybeAckAssigns()
}
