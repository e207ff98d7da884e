package main

import (
	"fmt"
	"math"
	"time"
)

// runOpts selects one benchmark run.
type runOpts struct {
	W       *workloadSpec
	Seed    int64
	Seconds float64 // measured time; phases split it
	Trace   bool

	// SetupRepeats is how many times set-up runs (setup_s is their median);
	// ProbeMin the minimum length of each layer probe; RateScale multiplies
	// the open-loop rate. The smoke test lowers all three (it must also pass
	// under the race detector's slowdown); the driver path uses the defaults.
	SetupRepeats int
	ProbeMin     time.Duration
	RateScale    float64
}

func (o *runOpts) setDefaults() {
	if o.SetupRepeats <= 0 {
		o.SetupRepeats = 3
	}
	if o.ProbeMin <= 0 {
		o.ProbeMin = 200 * time.Millisecond
	}
	if o.RateScale <= 0 {
		o.RateScale = 1
	}
}

// runResult is one run's outcome in the driver's shape.
type runResult struct {
	Attempted  int
	Failed     int
	Violations []string // correctness failures; empty means correct
	Metrics    metricSet
	Notes      []string // human-readable context lines
}

func (r *runResult) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *runResult) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// merged is a phase's results summed over the clients.
type merged struct {
	phaseResult
	wall    time.Duration   // longest client's phase, including the drain
	cpuWin  []time.Duration // process CPU time spent in each window
	windows int             // full windows in the phase
}

// addWin adds per-window counts b into a.
func addWin(a, b []int) []int {
	for len(a) < len(b) {
		a = append(a, 0)
	}
	for w, n := range b {
		a[w] += n
	}
	return a
}

func mergeResults(rs []phaseResult) merged {
	var m merged
	for i := range rs {
		r := &rs[i]
		m.attempted += r.attempted
		m.failed += r.failed
		m.completed += r.completed
		m.reads += r.reads
		m.timely += r.timely
		m.selected += r.selected
		m.answered += r.answered
		m.readMS = append(m.readMS, r.readMS...)
		m.readWin = append(m.readWin, r.readWin...)
		m.updateMS = append(m.updateMS, r.updateMS...)
		m.updateWin = append(m.updateWin, r.updateWin...)
		m.doneWin = addWin(m.doneWin, r.doneWin)
		m.readsWin = addWin(m.readsWin, r.readsWin)
		m.timelyWin = addWin(m.timelyWin, r.timelyWin)
		m.lateMS = append(m.lateMS, r.lateMS...)
		m.invokeUS = append(m.invokeUS, r.invokeUS...)
		m.violations = append(m.violations, r.violations...)
		m.cal.merge(&r.cal)
		if r.elapsed > m.wall {
			m.wall = r.elapsed
		}
	}
	return m
}

// firstReplies is the tail of set-up: the deployment counts as up once 100
// replies have come back (dials done, sequencer takeover round finished).
func (c *cluster) firstReplies() error {
	per := (100 + len(c.clients) - 1) / len(c.clients)
	rs, err := c.runPhase(phase{kind: phaseCount, count: per, window: 8})
	if err != nil {
		return err
	}
	if m := mergeResults(rs); m.failed > 0 {
		return fmt.Errorf("set-up: %d of %d first requests failed: %v", m.failed, m.attempted, m.violations)
	}
	return nil
}

// setUp deploys and waits for the first replies, returning the time from
// the start of the deployment to that point.
func setUp(o runOpts, tr *tracer) (*cluster, time.Duration, error) {
	t0 := time.Now()
	c, err := deploy(o.W, o.Seed, tr)
	if err != nil {
		return nil, 0, err
	}
	c.rateScale = o.RateScale
	if err := c.firstReplies(); err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// warmUp writes every key once (so the store, its snapshots and every read
// carry full-size values from the first measured request on) and then runs
// the open loop unrecorded for a while so repositories, connection buffers
// and the allocator reach steady state.
func (c *cluster) warmUp(d time.Duration) error {
	rs, err := c.runPhase(phase{kind: phaseCount, prefill: true, window: closedWindow})
	if err != nil {
		return err
	}
	if m := mergeResults(rs); m.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d prefill writes failed: %v", m.failed, m.attempted, m.violations)
	}
	_, err = c.openLoop(d)
	return err
}

// phaseWindow is the length of the windows a timed phase's samples are
// grouped into. A metric is the median over windows of the per-window
// value, so one disturbed second (a neighbour's burst, a GC cycle landing
// badly) moves one window, not the result.
func phaseWindow(d time.Duration) time.Duration {
	if d >= 4*time.Second {
		return time.Second
	}
	return d / 4
}

func (c *cluster) openLoop(d time.Duration) (merged, error) {
	rate := c.w.OpenRate * c.rateScale / float64(len(c.clients))
	return c.timedPhase(phase{kind: phaseOpen, rate: rate, dur: d, win: phaseWindow(d)})
}

func (c *cluster) closedLoop(d time.Duration) (merged, error) {
	return c.timedPhase(phase{kind: phaseClosed, window: closedWindow, dur: d, win: phaseWindow(d)})
}

// timedPhase runs a timed phase while sampling the process's CPU time at
// every window boundary.
func (c *cluster) timedPhase(shape phase) (merged, error) {
	win := shape.win
	stop := make(chan struct{})
	sampled := make(chan []time.Duration)
	go func() {
		cpu := []time.Duration{cpuTime()}
		t := time.NewTicker(win)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				cpu = append(cpu, cpuTime())
			case <-stop:
				sampled <- cpu
				return
			}
		}
	}()
	rs, err := c.runPhase(shape)
	close(stop)
	cpu := <-sampled
	m := mergeResults(rs)
	for i := 1; i < len(cpu); i++ {
		m.cpuWin = append(m.cpuWin, cpu[i]-cpu[i-1])
	}
	m.windows = int(shape.dur / win)
	return m, err
}

// windowQuantile takes quantile q inside each of the first n windows and
// returns the median of those. Windows with too few samples to carry the
// quantile are skipped; with none left it falls back to the whole sample.
func windowQuantile(vals []float64, wins []uint16, n int, q float64) float64 {
	groups := make([][]float64, n)
	for i, v := range vals {
		if w := int(wins[i]); w < n {
			groups[w] = append(groups[w], v)
		}
	}
	var per []float64
	for _, g := range groups {
		if len(g) >= 20 {
			per = append(per, quantile(g, q))
		}
	}
	if len(per) == 0 {
		return quantile(vals, q)
	}
	return median(per)
}

// timelyFrac is the median over windows of timely reads / reads attempted.
func (m *merged) timelyFrac() float64 {
	var per []float64
	for w := 0; w < m.windows && w < len(m.readsWin); w++ {
		if m.readsWin[w] > 0 {
			timely := 0
			if w < len(m.timelyWin) {
				timely = m.timelyWin[w]
			}
			per = append(per, float64(timely)/float64(m.readsWin[w]))
		}
	}
	if len(per) == 0 {
		return ratio(float64(m.timely), float64(m.reads))
	}
	return median(per)
}

// cpuPerOp is the median over windows of CPU time per completed operation.
func (m *merged) cpuPerOpUS() float64 {
	var per []float64
	for w := 0; w < m.windows && w < len(m.cpuWin) && w < len(m.doneWin); w++ {
		if m.doneWin[w] > 0 {
			per = append(per, float64(m.cpuWin[w])/1e3/float64(m.doneWin[w]))
		}
	}
	if len(per) == 0 { // a phase shorter than its sampling: use the whole of it
		var cpu time.Duration
		for _, c := range m.cpuWin {
			cpu += c
		}
		return ratio(float64(cpu)/1e3, float64(m.completed))
	}
	return median(per)
}

// goodput is the median over windows of completions per second.
func (m *merged) goodput(win time.Duration) float64 {
	var per []float64
	for w := 0; w < m.windows && w < len(m.doneWin); w++ {
		per = append(per, float64(m.doneWin[w])/win.Seconds())
	}
	if len(per) == 0 {
		return ratio(float64(m.completed), m.wall.Seconds())
	}
	return median(per)
}

// explain adds what the nodes logged to the notes of a run that failed: the
// program's own account (a takeover, a recovery pull, a wedged replica) is
// the first thing to read. Call after halt.
func (c *cluster) explain(res *runResult) {
	if len(res.Violations) == 0 && res.Failed == 0 {
		return
	}
	for _, l := range c.logs.lines {
		res.note("node log: %s", l)
	}
}

// checkVolatile asserts that a non-durable deployment never touched a WAL:
// no replica was given a store, so zero appends is structural, not sampled.
func (c *cluster) checkVolatile(res *runResult) {
	if c.w.Durable {
		return
	}
	for id, gw := range c.d.Replicas {
		if st := gw.DurableStore(); st != nil {
			appends, _, _, _ := st.Stats()
			res.violate("%s: replica %s has a WAL store (%d appends) on a volatile workload", c.w.Name, id, appends)
		}
	}
}

// openLoopMetrics fills the latency, timeliness and cost metrics of an
// open-loop phase.
func openLoopMetrics(ms metricSet, m *merged) {
	ms["read_ms_p50"] = windowQuantile(m.readMS, m.readWin, m.windows, 0.50)
	ms["update_ms_p50"] = windowQuantile(m.updateMS, m.updateWin, m.windows, 0.50)
	ms["timely_read_frac"] = m.timelyFrac()
	ms["replicas_per_read"] = ratio(float64(m.selected), float64(m.answered))
	ms["cpu_us_per_op"] = m.cpuPerOpUS()
}

// runLive runs one live workload untraced: set-up (several times), warm-up,
// the open-loop phase, then the closed-loop phase. The two measured phases
// share --seconds 60/40.
func runLive(o runOpts) (*runResult, error) {
	o.setDefaults()
	res := &runResult{Metrics: metricSet{}}
	openDur := seconds(0.6 * o.Seconds)
	closedDur := seconds(0.4 * o.Seconds)
	openWarm := clampDur(seconds(0.1*o.Seconds), 100*time.Millisecond, 1500*time.Millisecond)
	closedWarm := clampDur(seconds(0.05*o.Seconds), 100*time.Millisecond, time.Second)

	var c *cluster
	var setups []float64
	for i := 0; i < o.SetupRepeats; i++ {
		if c != nil {
			c.stop()
		}
		var d time.Duration
		var err error
		if c, d, err = setUp(o, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { c.stop() }()
	res.Metrics["setup_s"] = median(setups)

	if err := c.warmUp(openWarm); err != nil {
		return nil, err
	}

	open, err := c.openLoop(openDur)
	if err != nil {
		return nil, err
	}
	openLoopMetrics(res.Metrics, &open)
	if late := quantile(open.lateMS, 0.99); late > 5 {
		res.note("generator ran late: p99 %.2f ms behind schedule (above 5 ms the open-loop numbers are suspect)", late)
	}

	if _, err := c.closedLoop(closedWarm); err != nil {
		return nil, err
	}
	closed, err := c.closedLoop(closedDur)
	if err != nil {
		return nil, err
	}
	res.Metrics["goodput_ops_s"] = closed.goodput(phaseWindow(closedDur))
	res.note("open-loop tails: read p90 %.2f p99 %.2f max %.2f ms, update p90 %.2f p99 %.2f max %.2f ms, generator lateness p99 %.2f max %.2f ms",
		windowQuantile(open.readMS, open.readWin, open.windows, 0.90), quantile(open.readMS, 0.99), quantile(open.readMS, 1),
		windowQuantile(open.updateMS, open.updateWin, open.windows, 0.90), quantile(open.updateMS, 0.99), quantile(open.updateMS, 1),
		quantile(open.lateMS, 0.99), quantile(open.lateMS, 1))
	res.note("closed-loop CPU per op %.1f us (open-loop %.1f us)", closed.cpuPerOpUS(), open.cpuPerOpUS())

	res.Attempted = open.attempted + closed.attempted
	res.Failed = open.failed + closed.failed
	res.Violations = append(res.Violations, open.violations...)
	res.Violations = append(res.Violations, closed.violations...)

	c.stop()
	c.checkVolatile(res)
	c.explain(res)
	res.note("open loop %.0f ops/s for %v: %d reads, %d updates; closed loop %d clients x %d outstanding for %v",
		o.W.OpenRate, openDur, len(open.readMS), len(open.updateMS), len(c.clients), closedWindow, closedDur)
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.violate("metric %s is not finite", name)
		}
	}
	return res, nil
}
