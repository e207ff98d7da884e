package main

import (
	"runtime"
)

// runSimTraced is the traced sim-paper-faults run: the layer probes, then
// the same repetitions with the selector, router, registry and WAL counters
// observed. Virtual time cannot be perturbed by the observers, so the
// virtual-time numbers equal the untraced run's for the same seed.
func runSimTraced(o runOpts) (*runResult, error) {
	o.setDefaults()
	res := &runResult{Metrics: metricSet{}}
	ms := res.Metrics
	if err := runProbes(o.ProbeMin, ms); err != nil {
		return nil, err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	reps, err := runSimReps(o)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	t := foldSim(reps, o.Seconds)
	t.into(res)

	var invokeNS, selectUS []float64
	var retries, candidates, calls, appends, bytes, syncs, snaps, updates float64
	var cal calibration
	for _, r := range reps {
		invokeNS = append(invokeNS, r.invokeNS...)
		selectUS = append(selectUS, r.selectUS...)
		retries += r.retries
		candidates += r.candidates
		calls += r.selectCalls
		appends += r.walAppends
		bytes += r.walBytes
		syncs += r.walSyncs
		snaps += r.walSnapshots
		updates += float64(r.updatesDone)
		cal.merge(&r.cal)
	}
	recoverMS, recoverRecs := reps[0].recoverMS, reps[0].recoverRecs
	done := float64(t.done)
	ms["client.read_ms_p90"] = quantile(t.readMS, 0.90)
	ms["client.update_ms_p90"] = quantile(t.updateMS, 0.90)
	ms["client.read_ms_p99"] = quantile(t.readMS, 0.99)
	ms["client.update_ms_p99"] = quantile(t.updateMS, 0.99)
	ms["client.retries_per_kop"] = ratio(retries*1e3, done)
	ms["client.failed_op_frac"] = ratio(float64(t.failed), float64(t.attempted))
	ms["client.unavailable_ms"] = median(t.unavailable)
	ms["replica.catchup_ms"] = median(t.catchup)
	ms["selection.select_us_p50"] = median(selectUS)
	ms["selection.candidates_mean"] = ratio(candidates, calls)
	ms["selection.pk_calibration_err"] = cal.err()
	ms["shard.invoke_ns_p50"] = median(invokeNS)
	ms["sim.events_per_op"] = ratio(float64(t.events), done)
	ms["sim.msgs_per_op"] = ratio(float64(t.msgs), done)
	ms["sim.events_per_wall_s"] = float64(t.events) / t.wall.Seconds()
	ms["wal.appends_per_update"] = ratio(appends, updates)
	ms["wal.syncs_per_update"] = ratio(syncs, updates)
	ms["wal.bytes_per_update"] = ratio(bytes, updates)
	ms["wal.snapshots_per_kupdate"] = ratio(snaps*1e3, updates)
	ms["wal.recover_ms"] = recoverMS
	ms["bench.rss_mb_peak"] = peakRSSMB()
	ms["bench.alloc_bytes_per_op"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), done)
	res.note("client tail: read p99 over %d samples, update p99 over %d samples (virtual ms)", len(t.readMS), len(t.updateMS))
	res.note("wal.recover_ms: %d records on the acting sequencer's MemMedia after the first repetition", recoverRecs)
	res.note("all six oracles ran on each shard of each repetition; outage %v and catch-up %v are medians over the pooled repetitions",
		t.unavailable, t.catchup)
	return res, nil
}
