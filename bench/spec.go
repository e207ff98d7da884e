package main

import "time"

// This file is the single source of truth for the benchmark's contract: the
// four workloads, the end-to-end metrics with their bounds, and the
// per-layer metric names. BENCHMARK.json is `bench manifest` rendered from
// these tables (the smoke test keeps the two in step), and every later
// performance or simplicity claim names a workload and a metric from here.

// Parameters shared by the three live workloads (ISSUE 12, "Deployment
// shape"). They are constants, not flags: a result is comparable with
// another only when both ran the same shape.
const (
	kvKeys            = 1024
	kvValueBytes      = 1024
	assignBatch       = 256
	assignBatchWindow = time.Millisecond
	lazyInterval      = 100 * time.Millisecond
	readDeadline      = 50 * time.Millisecond
	readMinProb       = 0.9
	closedWindow      = 64 // invocations each client keeps outstanding in the closed-loop phase
	traceSampleEvery  = 16 // 1-in-N requests carry spans in a traced run

	// chaseInterval replaces the replicas' default of 500 ms with a time no
	// run reaches, so the chase tick never fires. The tick exists to recover
	// from a crashed sequencer and a partitioned replica (re-request lost
	// assignments and bodies, pull a snapshot across a gap, compare state
	// digests), and no live workload injects a fault. Under a saturating
	// load it acts on healthy backlog instead, and at the seed commit that
	// corrupts state: about one volatile-mixed run in ten and one
	// durable-mixed run in fifty failed the per-key read-your-writes check
	// until it was switched off (README, "Findings at the seed commit").
	// Nothing on the request path depends on the tick.
	chaseInterval = time.Hour
)

// workloadSpec describes one named workload. Names are permanent.
type workloadSpec struct {
	Name string
	Why  string // one line, for BENCHMARK.json

	// Sim selects the virtual-time fault workload; everything below is for
	// the live (TCP loopback) workloads only.
	Sim bool

	Secondaries int     // secondary group size (the primary group is always sequencer + 2)
	Durable     bool    // WAL on FileMedia + ReplicatedAssign
	UpdateFrac  float64 // share of updates in the request mix
	Staleness   int     // read staleness bound a
	OpenRate    float64 // open-loop offered rate, ops/s, summed over clients

}

var workloads = []workloadSpec{
	{
		Name:       "durable-mixed",
		Why:        "production ordering path: durable WAL + replicated assign, 50/50 mix at a=0, so wal and the quorum floor carry the run",
		Durable:    true,
		UpdateFrac: 0.5,
		OpenRate:   1000,
	},
	{
		Name:       "volatile-mixed",
		Why:        "same topology and mix with durability off: wal is bypassed (zero appends), so tcpnet/live/group/batching dominate; the durable-tax control",
		UpdateFrac: 0.5,
		OpenRate:   8000,
	},
	{
		Name:        "qos-reads",
		Why:         "95% reads at a=8 over 4 secondaries: Algorithm 1, the staleness model, deferred reads and lazy snapshot fan-out carry the run while wal does little",
		Secondaries: 4,
		Durable:     true,
		UpdateFrac:  0.05,
		Staleness:   8,
		OpenRate:    2000,
	},
	{
		Name: "sim-paper-faults",
		Why:  "virtual time, 2 shards of the paper's group, sequencer kill + durable restart under six oracles: selection/repository/stats/group/shard/sim do the work, no sockets or disk",
		Sim:  true,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one metric. Bound (end-to-end only) is the share of the
// parent's median by which the metric may get worse before a change is a
// regression.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the system sees. Every workload reports all
// of them on an untraced run. Latencies are virtual ms on sim-paper-faults.
//
// On the live workloads a latency, cost or throughput metric is the median
// over one-second windows of the per-window value, so one disturbed second
// moves one window, not the result.
//
// Bounds and membership both come from measurement. ISSUE 12 proposed
// 10-15 % and listed the p90 latencies here too. Ten seed-commit runs per
// workload on the reference host (2 shared cores) spread by up to 16 %
// between their quartiles on the metrics below and by 25-32 % on the p90s
// (the host flips between a faster and a slower state from one run to the
// next, and a tail percentile follows it hardest), so the p90s are per-layer
// metrics (client.*_ms_p90, no bound) and the bounds are the widest the
// driver allows for everything that follows host speed. See README,
// "Bounds".
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"read_ms_p50", "ms", "lower", 0.25},
	{"update_ms_p50", "ms", "lower", 0.25},
	{"timely_read_frac", "fraction", "higher", 0.05},
	{"replicas_per_read", "count", "lower", 0.05},
	{"goodput_ops_s", "ops/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// perLayer lists the single-layer metrics a traced run reports. They carry
// no bound. A metric that does not apply to a workload (wal.* on
// volatile-mixed, tcpnet.* on sim-paper-faults) is reported as 0.
var perLayer = []metricSpec{
	{"client.read_ms_p90", "ms", "lower", 0},
	{"client.update_ms_p90", "ms", "lower", 0},
	{"client.read_ms_p99", "ms", "lower", 0},
	{"client.update_ms_p99", "ms", "lower", 0},
	{"client.invoke_us_p50", "us", "lower", 0},
	{"client.retries_per_kop", "count", "lower", 0},
	{"client.gen_late_ms_p99", "ms", "lower", 0},
	{"client.failed_op_frac", "fraction", "lower", 0},
	{"client.unavailable_ms", "ms", "lower", 0},

	{"selection.select_us_p50", "us", "lower", 0},
	{"selection.candidates_mean", "count", "lower", 0},
	{"selection.pk_calibration_err", "fraction", "lower", 0},
	{"repository.pmf_rebuild_ns", "ns", "lower", 0},
	{"stats.convolve_ns", "ns", "lower", 0},

	{"tcpnet.frames_per_op", "count", "lower", 0},
	{"tcpnet.bytes_per_op", "B", "lower", 0},
	{"tcpnet.flush_batch_mean", "count", "higher", 0},
	{"tcpnet.drops_per_kop", "count", "lower", 0},
	{"tcpnet.hop_us_p50", "us", "lower", 0},
	{"tcpnet.send_enqueue_ns_p50", "ns", "lower", 0},
	{"tcpnet.encode_ns_per_frame", "ns", "lower", 0},
	{"tcpnet.decode_ns_per_frame", "ns", "lower", 0},

	{"live.recv_per_op", "count", "lower", 0},
	{"live.busy_frac.sequencer", "fraction", "lower", 0},
	{"live.busy_frac.primary", "fraction", "lower", 0},
	{"live.busy_frac.secondary", "fraction", "lower", 0},
	{"live.busy_frac.client", "fraction", "lower", 0},
	{"live.inject_recv_ns", "ns", "lower", 0},
	{"live.timer_skew_us_p50", "us", "lower", 0},

	{"group.data_per_op", "count", "lower", 0},
	{"group.acks_per_op", "count", "lower", 0},
	{"group.heartbeats_per_s", "1/s", "lower", 0},
	{"group.retransmits_per_kop", "count", "lower", 0},

	{"replica.recv_us_p50.request", "us", "lower", 0},
	{"replica.recv_us_p50.assign_batch", "us", "lower", 0},
	{"replica.recv_us_p50.assign_ack", "us", "lower", 0},
	{"replica.recv_us_p50.order_commit", "us", "lower", 0},
	{"replica.recv_us_p50.state_update", "us", "lower", 0},
	{"replica.assign_batch_mean", "count", "higher", 0},
	{"replica.order_wait_us_p50", "us", "lower", 0},
	{"replica.log_ack_us_p50", "us", "lower", 0},
	{"replica.floor_wait_us_p50", "us", "lower", 0},
	{"replica.release_apply_us_p50", "us", "lower", 0},
	{"replica.fast_read_frac", "fraction", "higher", 0},
	{"replica.deferred_read_frac", "fraction", "lower", 0},
	{"replica.staleness_at_read_mean", "versions", "lower", 0},
	{"replica.lazy_bytes_per_s", "B/s", "lower", 0},
	{"replica.lazy_ticks_per_s", "1/s", "lower", 0},
	{"replica.catchup_ms", "ms", "lower", 0},

	{"consistency.commitbuf_ns_per_update", "ns", "lower", 0},
	{"consistency.floor_ns", "ns", "lower", 0},

	{"wal.appends_per_update", "count", "lower", 0},
	{"wal.syncs_per_update", "count", "lower", 0},
	{"wal.bytes_per_update", "B", "lower", 0},
	{"wal.append_us_p50", "us", "lower", 0},
	{"wal.append_us_p99", "us", "lower", 0},
	{"wal.busy_frac", "fraction", "lower", 0},
	{"wal.snapshot_ms_p50", "ms", "lower", 0},
	{"wal.snapshots_per_kupdate", "count", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
	{"host.fsync_us_p50", "us", "lower", 0},

	{"apps.apply_us_p50", "us", "lower", 0},
	{"apps.read_us_p50", "us", "lower", 0},
	{"apps.snapshot_us_p50", "us", "lower", 0},

	{"shard.invoke_ns_p50", "ns", "lower", 0},
	{"shard.owner_ns", "ns", "lower", 0},

	{"sim.events_per_op", "count", "lower", 0},
	{"sim.msgs_per_op", "count", "lower", 0},
	{"sim.events_per_wall_s", "1/s", "higher", 0},

	{"bench.trace_overhead_frac", "fraction", "lower", 0},
	{"bench.path_sum_err_frac", "fraction", "lower", 0},
	{"bench.path_update_ms_p50", "ms", "lower", 0},
	{"bench.path_read_ms_p50", "ms", "lower", 0},
	{"bench.rss_mb_peak", "MB", "lower", 0},
	{"bench.alloc_bytes_per_op", "B", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a spec table,
// so a misspelt or missing name is caught where it is produced.
type metricSet map[string]float64

// render returns the set as the driver's JSON shape, one entry per spec row.
// Names the run did not produce are reported as 0.
func (m metricSet) render(spec []metricSpec) map[string]metric {
	out := make(map[string]metric, len(spec))
	for _, s := range spec {
		out[s.Name] = metric{Value: m[s.Name], Unit: s.Unit}
	}
	return out
}
