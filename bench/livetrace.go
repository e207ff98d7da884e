package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aqua/internal/check"
	"aqua/internal/wal"
)

// judge runs the six protocol oracles over a trace. It returns one line per
// failed oracle, a summary of how much each checked, and the oracles that
// checked nothing.
func judge(events []check.Event) (violations []string, summary string, idle []string) {
	report := check.Run(events)
	var parts []string
	for _, v := range report.Verdicts {
		parts = append(parts, fmt.Sprintf("%s %d", v.Invariant, v.Checked))
		if v.Checked == 0 {
			idle = append(idle, v.Invariant)
		}
		if !v.OK() {
			violations = append(violations, fmt.Sprintf("oracle %s: %d failures: %s",
				v.Invariant, v.Failures, strings.Join(v.Violations, "; ")))
		}
	}
	return violations, fmt.Sprintf("six oracles over %d events, checks: %s", len(events), strings.Join(parts, ", ")), idle
}

// runLiveTraced is the traced run of a live workload: the layer probes, a
// short untraced open loop (the tracing overhead's baseline), then the open
// loop again under every decorator. The two loops share --seconds 30/70.
// End-to-end metrics never come from here.
func runLiveTraced(o runOpts) (*runResult, error) {
	o.setDefaults()
	res := &runResult{Metrics: metricSet{}}
	ms := res.Metrics
	if err := runProbes(o.ProbeMin, ms); err != nil {
		return nil, err
	}
	baseDur := seconds(0.3 * o.Seconds)
	tracedDur := seconds(0.7 * o.Seconds)
	warm := clampDur(seconds(0.1*o.Seconds), 100*time.Millisecond, 1500*time.Millisecond)

	// Untraced baseline.
	c, _, err := setUp(o, nil)
	if err != nil {
		return nil, err
	}
	if err := c.warmUp(warm); err != nil {
		c.stop()
		return nil, err
	}
	base, err := c.openLoop(baseDur)
	c.stop()
	if err != nil {
		return nil, err
	}

	// Traced deployment.
	tr := newTracer()
	c, _, err = setUp(o, tr)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	fsyncUS, err := fsyncCalibration(c.dir, o.ProbeMin)
	if err != nil {
		return nil, err
	}
	ms["host.fsync_us_p50"] = fsyncUS
	if err := c.warmUp(warm); err != nil {
		return nil, err
	}
	syncs0 := c.syncs()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	tr.arm()
	open, err := c.openLoop(tracedDur)
	tr.disarm()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	syncs1 := c.syncs()
	c.halt() // every node goroutine has exited: the logs are now safe to read

	res.Attempted = base.attempted + open.attempted
	res.Failed = base.failed + open.failed
	res.Violations = append(res.Violations, base.violations...)
	res.Violations = append(res.Violations, open.violations...)
	c.checkVolatile(res)

	ops := float64(open.attempted - open.failed)
	ms["client.read_ms_p90"] = windowQuantile(open.readMS, open.readWin, open.windows, 0.90)
	ms["client.update_ms_p90"] = windowQuantile(open.updateMS, open.updateWin, open.windows, 0.90)
	ms["client.read_ms_p99"] = quantile(open.readMS, 0.99)
	ms["client.update_ms_p99"] = quantile(open.updateMS, 0.99)
	ms["client.invoke_us_p50"] = median(open.invokeUS)
	ms["client.gen_late_ms_p99"] = quantile(open.lateMS, 0.99)
	ms["client.failed_op_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.note("client tail: read p99 over %d samples, update p99 over %d samples", len(open.readMS), len(open.updateMS))

	var selectUS []float64
	var candidates, calls float64
	for _, lc := range c.clients {
		selectUS = append(selectUS, f32s(lc.sel.selectUS)...)
		candidates += float64(lc.sel.candidates)
		calls += float64(lc.sel.calls)
	}
	ms["selection.select_us_p50"] = median(selectUS)
	ms["selection.candidates_mean"] = ratio(candidates, calls)
	ms["selection.pk_calibration_err"] = open.cal.err()

	a := tr.analyze(&open, ms)
	a.report(res)
	if path, err := a.writeSpans(o.W, o.Seed); err != nil {
		res.note("spans not written: %v", err)
	} else {
		res.note("%d spans of sampled requests written to %s", len(a.spans), path)
	}

	flushes, reqs := c.d.Replicas[c.d.Sequencer].AssignBatchStats()
	ms["replica.assign_batch_mean"] = ratio(float64(reqs), float64(flushes))
	ms["wal.syncs_per_update"] = ratio(float64(syncs1-syncs0), float64(len(open.updateMS)))

	if o.W.Durable {
		// Recovery cost over what the run left on disk at one serving primary.
		dir := filepath.Join(c.dir, string(c.d.ServingPrimaries[0]))
		fm, err := wal.NewFileMedia(dir)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rec, err := wal.NewStore(fm).Recover()
		ms["wal.recover_ms"] = float64(time.Since(t0)) / 1e6
		fm.Close()
		if err != nil {
			res.violate("recover over %s: %v", dir, err)
		}
		res.note("wal.recover_ms: snapshot at CSN %d plus %d commit and %d assign records", rec.Snapshot.CSN, len(rec.Records), len(rec.Assigns))

		checked, violations := tr.audit()
		res.Violations = append(res.Violations, violations...)
		res.note("durability audit: %d sampled acknowledgements replayed from the last-sync journals, %d not on a majority", checked, len(violations))
		if checked == 0 && len(open.updateMS) >= 4*traceSampleEvery {
			res.violate("durability audit checked nothing although %d updates were acknowledged", len(open.updateMS))
		}
		if err := auditSelfTest(); err != nil {
			res.violate("%v", err)
		}
	}
	violations, summary, _ := judge(tr.rec.rec.Events())
	res.Violations = append(res.Violations, violations...)
	res.note("%s", summary)

	c.explain(res)

	baseCPU, tracedCPU := base.cpuPerOpUS(), open.cpuPerOpUS()
	ms["bench.trace_overhead_frac"] = ratio(tracedCPU-baseCPU, baseCPU)
	ms["bench.rss_mb_peak"] = peakRSSMB()
	ms["bench.alloc_bytes_per_op"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), ops)
	res.note("tracing overhead: %.1f us CPU per op traced against %.1f us untraced; loopback only, so latency is processor, timer and fsync time (fsync p50 %.0f us here)",
		tracedCPU, baseCPU, fsyncUS)
	if late := ms["client.gen_late_ms_p99"]; late > 5 {
		res.note("generator ran late: p99 %.2f ms behind schedule (above 5 ms the open-loop numbers are suspect)", late)
	}
	return res, nil
}

// syncs sums the durability barriers of every replica's media.
func (c *cluster) syncs() uint64 {
	var n uint64
	for _, m := range c.medias {
		n += m.Syncs()
	}
	return n
}
