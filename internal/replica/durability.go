package replica

import (
	"fmt"

	"aqua/internal/consistency"
	"aqua/internal/wal"
)

// Durable state (DESIGN.md §14). The gateway's invariant is that the WAL
// frontier always equals my_CSN: every run of released commits goes through
// the log, as one append, before any of its jobs enters the work queue
// (releaseRun, from enqueueCommits and the state-update drain), and snapshot
// installs refresh the cell at the same CSN they advance the buffer to. A
// crash therefore always lands with the durable frontier at or ahead of the
// applied frontier — the simulator only crashes nodes between callbacks,
// and within a callback the append precedes both the applies and the acks
// of everything it covers.

// recoverDurable rebuilds pre-crash state at Init: restore the snapshot
// cell, replay the log suffix against the application, and reseed the
// protocol memos so the replica stands exactly where its last incarnation
// committed — without re-fetching history from its peers.
func (g *Gateway) recoverDurable() {
	rec, err := g.cfg.Durable.Recover()
	if err != nil {
		// An unreadable store recovers nothing provable; rejoin as a fresh
		// node through the usual sync path.
		g.ctx.Logf("replica: wal recover: %v", err)
	}
	if rec.CSN == 0 && len(rec.Assigns) == 0 {
		// Empty store: first boot, or nothing durable survived.
		g.walFoldTail(&rec)
		return
	}
	if rec.Snapshot.CSN > 0 || len(rec.Snapshot.App) > 0 {
		if err := g.cfg.App.Restore(rec.Snapshot.App); err != nil {
			g.ctx.Logf("replica: wal snapshot restore failed: %v", err)
			return
		}
		for _, id := range rec.Snapshot.RecentIDs {
			g.committed.Put(id, struct{}{})
		}
	}
	for i := range rec.Records {
		r := &rec.Records[i]
		if !r.Dup {
			if _, err := g.cfg.App.ApplyUpdate(r.Method, r.Payload); err != nil {
				g.ctx.Logf("replica: wal replay apply %s: %v", fmtID(r.ID), err)
			}
		}
		g.committed.Put(r.ID, struct{}{})
		g.recentBodies.Put(r.ID, consistency.Request{ID: r.ID, Method: r.Method, Payload: r.Payload})
		g.observedAssigns.Put(r.ID, r.GSN)
	}
	g.commit.Bootstrap(rec.CSN)
	// Restore the durable assignment table above the commit frontier: the
	// prior incarnation acknowledged these assignments to the sequencer, so
	// this incarnation must still hold them — a takeover quorum counting
	// this node re-learns them from its GSNReport (REVIEW: acked frontiers
	// must survive crash-recovery, not just the released prefix).
	for _, a := range rec.Assigns {
		g.observedAssigns.Put(a.ID, a.GSN)
		g.commit.AddAssign(consistency.GSNAssign{ID: a.ID, GSN: a.GSN, Update: true})
	}
	g.applied = rec.CSN
	g.recovered = rec.CSN
	g.walFoldTail(&rec)
	g.ins.recoveries.Inc()
	g.ins.recoveryReplayed.Observe(float64(len(rec.Records)))
	// Replay is not re-execution for the trace: the prior incarnation's
	// OnApply events already cover these GSNs. OnRecover marks where the
	// recovered incarnation resumes instead.
	if rec.CSN > 0 && g.cfg.OnRecover != nil {
		g.cfg.OnRecover(rec.CSN)
	}
	g.ctx.Logf("replica: recovered to CSN %d (snapshot %d + %d records + %d assigns, torn=%t, %d tail bytes folded)",
		rec.CSN, rec.Snapshot.CSN, len(rec.Records), len(rec.Assigns), rec.Torn, rec.TailBytes)
}

// Recovered returns the durable commit frontier Init reconstructed (0 when
// none) — for tests and diagnostics.
func (g *Gateway) Recovered() uint64 { return g.recovered }

// DurableStore exposes the gateway's WAL store (nil when durability is
// off) — the adversarial tests arm crash-point and planted-bug injections
// on it before Init runs.
func (g *Gateway) DurableStore() *wal.Store { return g.cfg.Durable }

// walFail wedges the replica on a durability failure: a WAL that can no
// longer extend its frontier means the invariant "durable frontier ≥
// acknowledged frontier" is about to break, and a replica that keeps
// applying and acking on top of a stale log silently un-promises
// durability. Fail stop instead: drop all traffic, stop ticking, go
// silent — the group treats the node as crashed and heals around it.
func (g *Gateway) walFail(op string, err error) {
	if g.wedged {
		return
	}
	g.wedged = true
	g.ctx.Logf("replica: wal %s failed; wedging (fail-stop): %v", op, err)
}

// Wedged reports whether a durability failure has fail-stopped this
// replica (tests and diagnostics).
func (g *Gateway) Wedged() bool { return g.wedged }

// walFoldTail closes a recovered log whose tail replay could not cross (a
// torn final run, corruption, subsumed records left by a crash between a
// cell write and its log reset). The media cannot cut those bytes, and
// anything appended behind them would be unreachable at the next recovery,
// so the recovered state is folded into a fresh snapshot cell — cell
// durable, then log reset — before this incarnation logs or acks anything.
// Failure wedges the replica.
func (g *Gateway) walFoldTail(rec *wal.Recovered) {
	if rec.TailBytes == 0 {
		return
	}
	snap, err := g.cfg.App.Snapshot()
	if err != nil {
		g.walFail(fmt.Sprintf("recovery fold at %d", rec.CSN), err)
		return
	}
	g.walSaveSnapshot(rec.CSN, snap, g.recentCommittedIDs())
}

// releaseRun makes one run of released commits durable — a single WAL
// append, one barrier however long the run — and only then enqueues its
// jobs: every apply and every ack happens after the append that covers it
// returned. It reports whether the run was released; an append failure
// wedges the replica (fail-stop) and none of the run becomes visible. The
// run's jobs carry consecutive GSNs from my_CSN's previous value.
func (g *Gateway) releaseRun(run []job) bool {
	if st := g.cfg.Durable; st != nil && len(run) > 0 {
		if g.wedged {
			return false
		}
		recs := g.walRun[:0]
		for i := range run {
			j := &run[i]
			recs = append(recs, wal.Record{GSN: j.gsn, ID: j.req.ID, Method: j.req.Method, Payload: j.req.Payload, Dup: j.dup})
		}
		err := st.AppendCommits(recs)
		clear(recs) // drop the payload references; keep the capacity
		g.walRun = recs[:0]
		if err != nil {
			g.walFail(fmt.Sprintf("append gsn %d..%d", run[0].gsn, run[len(run)-1].gsn), err)
			return false
		}
		g.walAppended(len(run))
	}
	for i := range run {
		g.enqueue(run[i])
	}
	return true
}

// walAppended accounts one successful media append covering n records.
func (g *Gateway) walAppended(n int) {
	g.ins.walAppends.Add(uint64(n))
	g.ins.walRunRecords.Observe(float64(n))
	g.ins.walLogBytes.Set(int64(g.cfg.Durable.LogBytes()))
}

// walLogAssigns extends the store's durable assignment frontier to the
// commit buffer's contiguous assignment frontier, as one append. It runs
// before any AssignAck: an acknowledged frontier the acker cannot recover
// after a crash would let a sequencer release a floor whose takeover quorum
// no longer holds the assignments. A failed append wedges the replica with
// the durable frontier — and so the ackable one — where it was. No-op
// without a durable store.
func (g *Gateway) walLogAssigns() {
	if g.cfg.Durable == nil || g.wedged {
		return
	}
	st := g.cfg.Durable
	from := st.AssignFrontier()
	if from >= g.commit.AssignFrontier() {
		return
	}
	assigns := g.commit.ContiguousAssigns(from)
	run := make([]wal.Assign, len(assigns))
	for i, a := range assigns {
		run[i] = wal.Assign{GSN: a.GSN, ID: a.ID}
	}
	if err := st.AppendAssigns(run); err != nil {
		g.walFail(fmt.Sprintf("assign gsn %d..%d", run[0].GSN, run[len(run)-1].GSN), err)
		return
	}
	g.walAppended(len(run))
}

// ackableFrontier is the assignment frontier this replica may acknowledge:
// the in-memory contiguous frontier, capped at what the WAL holds when the
// replica is durable (an ack is a promise to survive a crash).
func (g *Gateway) ackableFrontier() uint64 {
	f := g.commit.AssignFrontier()
	if g.cfg.Durable != nil {
		if df := g.cfg.Durable.AssignFrontier(); df < f {
			f = df
		}
	}
	return f
}

// walSaveSnapshot replaces the snapshot cell (and resets the log) with
// state at csn, carrying the outstanding assignment table above it. It
// reports whether the caller may proceed — a snapshot failure wedges the
// replica. No-op without a durable store.
func (g *Gateway) walSaveSnapshot(csn uint64, appState []byte, ids []consistency.RequestID) bool {
	if g.cfg.Durable == nil {
		return true
	}
	if g.wedged {
		return false
	}
	snap := wal.Snapshot{CSN: csn, App: appState, RecentIDs: ids}
	for _, a := range g.commit.ContiguousAssigns(csn) {
		snap.Assigns = append(snap.Assigns, wal.Assign{GSN: a.GSN, ID: a.ID})
	}
	if err := g.cfg.Durable.SaveSnapshot(&snap); err != nil {
		g.walFail(fmt.Sprintf("snapshot at %d", csn), err)
		return false
	}
	g.ins.walSnapshots.Inc()
	g.ins.walLogBytes.Set(0)
	return true
}

// maybeCompact folds the log into a fresh snapshot once compaction is due
// (Config.SnapshotEvery; wal.Store.CompactionDue). Runs only when the
// applied frontier has caught up with the commit frontier, so the snapshot
// provably covers every logged record.
func (g *Gateway) maybeCompact() {
	if g.cfg.Durable == nil || !g.cfg.Durable.CompactionDue(g.cfg.SnapshotEvery) {
		return
	}
	if g.applied != g.commit.MyCSN() {
		return // queued commits not yet applied; next completion retries
	}
	snap, err := g.cfg.App.Snapshot()
	if err != nil {
		g.ctx.Logf("replica: compaction snapshot failed: %v", err)
		return
	}
	g.walSaveSnapshot(g.applied, snap, g.recentCommittedIDs())
}
