package replica

import (
	"aqua/internal/node"
	"aqua/internal/obs"
)

// replicaInstruments holds the server gateway's resolved metrics. The zero
// value (observability disabled) is all nil no-op instruments.
type replicaInstruments struct {
	readsServed    *obs.Counter
	updatesApplied *obs.Counter
	readsDeferred  *obs.Counter
	perfBroadcasts *obs.Counter

	// stalenessAtRead samples my_GSN − my_CSN each time a read clears its
	// GSN wait — the quantity the staleness check of Section 4.1.2 compares
	// against the client's threshold a.
	stalenessAtRead *obs.Histogram

	// Queue depths, sampled whenever they change.
	commitStaged  *obs.Gauge
	deferredReads *obs.Gauge
	queueDepth    *obs.Gauge

	// Sequencer role.
	gsnAssigned   *obs.Counter
	readSnapshots *obs.Counter
	// assignBatchHist samples requests-per-flush when batched GSN ordering
	// is enabled; its mean is the realized amortization factor.
	assignBatchHist *obs.Histogram

	// fastReads counts reads served through the frontier fast path (a
	// subset of readsServed).
	fastReads *obs.Counter

	// Lazy publisher role.
	lazyTicks       *obs.Counter
	lazyBatchHist   *obs.Histogram
	serviceTimeHist *obs.Histogram

	// Durability: WAL records appended and snapshot-cell writes, records per
	// media append (one durability barrier each — the amortisation factor
	// behind syncs per update), the log's current size, recoveries run at
	// Init, and the per-recovery replayed-record count.
	walAppends       *obs.Counter
	walSnapshots     *obs.Counter
	walRunRecords    *obs.Histogram
	walLogBytes      *obs.Gauge
	recoveries       *obs.Counter
	recoveryReplayed *obs.Histogram

	// Replicated ordering: majority-floor broadcasts by the sequencer.
	orderCommits *obs.Counter
}

func newReplicaInstruments(reg *obs.Registry, self node.ID) replicaInstruments {
	if reg == nil {
		return replicaInstruments{}
	}
	n := string(self)
	return replicaInstruments{
		readsServed:      reg.Counter("aqua_replica_reads_served_total", "node", n),
		updatesApplied:   reg.Counter("aqua_replica_updates_applied_total", "node", n),
		readsDeferred:    reg.Counter("aqua_replica_reads_deferred_total", "node", n),
		perfBroadcasts:   reg.Counter("aqua_replica_perf_broadcasts_total", "node", n),
		stalenessAtRead:  reg.Histogram("aqua_replica_staleness_at_read", obs.DepthBuckets(), "node", n),
		commitStaged:     reg.Gauge("aqua_replica_commit_staged", "node", n),
		deferredReads:    reg.Gauge("aqua_replica_deferred_reads", "node", n),
		queueDepth:       reg.Gauge("aqua_replica_queue_depth", "node", n),
		gsnAssigned:      reg.Counter("aqua_sequencer_gsn_assigned_total", "node", n),
		readSnapshots:    reg.Counter("aqua_sequencer_read_snapshots_total", "node", n),
		assignBatchHist:  reg.Histogram("aqua_sequencer_assign_batch_reqs", obs.DepthBuckets(), "node", n),
		fastReads:        reg.Counter("aqua_replica_fast_reads_total", "node", n),
		lazyTicks:        reg.Counter("aqua_publisher_lazy_ticks_total", "node", n),
		lazyBatchHist:    reg.Histogram("aqua_publisher_lazy_batch_updates", obs.DepthBuckets(), "node", n),
		serviceTimeHist:  reg.Histogram("aqua_replica_service_ms", obs.LatencyBucketsMS(), "node", n),
		walAppends:       reg.Counter("aqua_replica_wal_appends_total", "node", n),
		walSnapshots:     reg.Counter("aqua_replica_wal_snapshots_total", "node", n),
		walRunRecords:    reg.Histogram("aqua_replica_wal_run_records", obs.DepthBuckets(), "node", n),
		walLogBytes:      reg.Gauge("aqua_replica_wal_log_bytes", "node", n),
		recoveries:       reg.Counter("aqua_replica_recoveries_total", "node", n),
		recoveryReplayed: reg.Histogram("aqua_replica_recovery_replayed_records", obs.DepthBuckets(), "node", n),
		orderCommits:     reg.Counter("aqua_sequencer_order_commits_total", "node", n),
	}
}

// observeDepths refreshes the three depth gauges; called after any mutation
// of the commit buffer, defer queue, or work queue. Guarded by obsOn so the
// disabled path skips even the len() reads.
func (g *Gateway) observeDepths() {
	if !g.obsOn {
		return
	}
	g.ins.commitStaged.Set(int64(g.commit.StagedLen()))
	g.ins.deferredReads.Set(int64(g.reads.DeferredLen()))
	g.ins.queueDepth.Set(int64(len(g.queue)))
}

// recordServeSpan emits the replica-side trace record for one completed
// job. Callers guard on g.cfg.Tracer != nil.
func (g *Gateway) recordServeSpan(j *job, tsMS, tqMS float64) {
	kind := "serve_update"
	if j.kind == jobRead {
		kind = "serve_read"
	}
	span := obs.Span{
		Kind:      kind,
		Node:      string(g.ctx.ID()),
		Client:    string(j.req.ID.Client),
		Seq:       j.req.ID.Seq,
		Method:    j.req.Method,
		Deferred:  j.deferWait > 0,
		ServiceMS: tsMS,
		QueueMS:   tqMS,
		DeferMS:   float64(j.deferWait) / 1e6,
		Staleness: int64(j.gsn) - int64(g.commit.MyCSN()),
	}
	g.cfg.Tracer.Record(g.ctx.Now(), &span)
}
