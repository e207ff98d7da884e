// Package experiment regenerates the paper's evaluation (Section 6): the
// selection-overhead measurement of Figure 3, the model-validation runs of
// Figure 4, the parameter sweeps the conclusions mention (lazy update
// interval, request delay), and the ablations (baseline selectors, hot-spot
// avoidance, failure injection).
package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
)

// Fig4Config parameterizes one run of the paper's validation experiment:
// 10 server replicas (4 primary + 6 secondary) plus the sequencer, two
// clients issuing alternating write and read requests with a request delay,
// background load simulated as a normally distributed service delay.
type Fig4Config struct {
	Seed int64

	// Client 2 (the measured client) QoS.
	Deadline  time.Duration
	MinProb   float64
	Staleness int

	// LUI is the lazy update interval T_L.
	LUI time.Duration

	// Requests is the number of alternating write/read requests per client
	// (the paper uses 1000).
	Requests int
	// RequestDelay elapses between a completion and the next request (the
	// paper uses 1000 ms).
	RequestDelay time.Duration

	// ServiceMean/ServiceStd parameterize the simulated background load
	// (the paper uses 100 ms / 50 ms).
	ServiceMean time.Duration
	ServiceStd  time.Duration

	// Primaries counts serving primaries (the sequencer is extra);
	// Secondaries counts the secondary group. Paper: 4 and 6.
	Primaries   int
	Secondaries int

	// WindowSize is the repository sliding window l (paper: 20).
	WindowSize int

	// Selector overrides the measured client's selector (default
	// Algorithm 1) — used by the baseline ablations.
	Selector selection.Selector
	// SelectorForAll applies Selector to every client, not just the
	// measured one — the systemic comparison the scalability experiment
	// needs (a lone flooding client otherwise free-rides on polite peers).
	SelectorForAll bool

	// Crash, if non-empty, crashes that replica at CrashAt into the run —
	// used by the failover ablation. "sequencer" and "publisher" select
	// those roles symbolically.
	Crash   string
	CrashAt time.Duration

	// AssignBatch threads the sequencer's assignment window size through to
	// the deployment. Values <= 1 are a window of one — the paper's
	// per-request protocol, which TestFig4BatchKnobByteIdentical pins to a
	// golden render of the paper tables.
	AssignBatch int
	// AssignBatchWindow bounds how long a batch may wait (a window of one
	// never waits).
	AssignBatchWindow time.Duration

	// Durable equips every replica with the WAL + snapshot store. The
	// in-memory media is synchronous (no scheduler events, no rand draws),
	// so with no recovery faults injected the paper tables must stay
	// byte-identical — TestFig4DurabilityByteIdentical holds this.
	Durable       bool
	SnapshotEvery int

	// CountedEstimator switches the measured client to the n_L-anchored
	// staleness estimator (abl-estimator).
	CountedEstimator bool
	// OnSelect, if set, observes the measured client's per-read prediction
	// (model calibration).
	OnSelect func(predicted float64, selected int)

	// onReadResult, if set, observes every measured-client read's response
	// time in issue order (closed loop: exactly one outstanding request),
	// pairing 1:1 with OnSelect calls. Used by the calibration experiment.
	onReadResult func(time.Duration)

	// ExtraClients adds background clients beyond the paper's client 1,
	// each running the same alternating workload with client 1's loose QoS
	// — the scalability experiment's load knob.
	ExtraClients int
	// Loss drops each network message independently with this probability
	// (the substrate's ARQ recovers) — the loss-tolerance experiment.
	Loss float64

	// Obs, when non-nil, collects metrics from every gateway in the run
	// plus the simulator's event/message totals. Instruments only record —
	// they never read clocks or schedule work — so enabling them leaves the
	// virtual-time event order, and therefore every result, bit-identical.
	// Sweeps share one registry across points: instruments are atomic, so
	// parallel workers aggregate into it safely.
	Obs *obs.Registry
	// Trace, when non-nil, streams per-request spans; each point derives a
	// run-labelled sub-tracer so one JSONL file serves a whole sweep.
	Trace *obs.Tracer
}

// runLabel names one experimental point in trace output.
func (c *Fig4Config) runLabel() string {
	return fmt.Sprintf("fig4 d=%s p=%g lui=%s seed=%d", c.Deadline, c.MinProb, c.LUI, c.Seed)
}

func (c *Fig4Config) setDefaults() {
	if c.Staleness == 0 {
		c.Staleness = 2
	}
	if c.Requests == 0 {
		c.Requests = 1000
	}
	if c.RequestDelay == 0 {
		c.RequestDelay = time.Second
	}
	if c.ServiceMean == 0 {
		c.ServiceMean = 100 * time.Millisecond
	}
	if c.ServiceStd == 0 {
		c.ServiceStd = 50 * time.Millisecond
	}
	if c.Primaries == 0 {
		c.Primaries = 4
	}
	if c.Secondaries == 0 {
		c.Secondaries = 6
	}
	if c.WindowSize == 0 {
		c.WindowSize = 20
	}
	if c.LUI == 0 {
		c.LUI = 2 * time.Second
	}
}

// Fig4Result reports the measured client's run.
type Fig4Result struct {
	Deadline time.Duration
	MinProb  float64
	LUI      time.Duration

	Reads          int
	TimingFailures int
	// FailureProb is the observed probability of timing failure with its
	// 95% binomial confidence interval (Figure 4b).
	FailureProb float64
	CI          stats.BinomialCI
	// AvgSelected is the mean number of serving replicas selected per read
	// (Figure 4a).
	AvgSelected float64
	// MeanResponse is the mean read response time.
	MeanResponse time.Duration
	// Selections counts how often each serving replica was selected (for
	// the hot-spot ablation).
	Selections map[node.ID]int
	// Done reports whether both clients finished their request quota.
	Done bool
}

// alternatingDriver issues total alternating Set/Get requests in a closed
// loop with the given think time, recording read response times.
func alternatingDriver(total int, thinkTime time.Duration, key string, onRead func(client.Result), onDone func()) func(node.Context, *client.Gateway) {
	return func(ctx node.Context, gw *client.Gateway) {
		var issue func(k int)
		issue = func(k int) {
			if k >= total {
				if onDone != nil {
					onDone()
				}
				return
			}
			next := func(client.Result) {
				ctx.Post(thinkTime, func() { issue(k + 1) })
			}
			if k%2 == 0 {
				gw.Invoke("Set", []byte(fmt.Sprintf("%s=%d", key, k)), next)
			} else {
				gw.Invoke("Get", []byte(key), func(r client.Result) {
					if onRead != nil {
						onRead(r)
					}
					next(r)
				})
			}
		}
		// Small deterministic stagger so the two clients do not start in
		// lockstep.
		stagger := time.Duration(ctx.Rand().Int63n(int64(200 * time.Millisecond)))
		ctx.Post(stagger, func() { issue(0) })
	}
}

// RunFig4Point executes one experimental point (one full run) in virtual
// time and returns the measured client's statistics.
func RunFig4Point(cfg Fig4Config) Fig4Result {
	cfg.setDefaults()

	s := sim.NewScheduler(cfg.Seed)
	opts := []sim.Option{sim.WithDelay(netsim.UniformDelay{
		Min: 500 * time.Microsecond,
		Max: 2 * time.Millisecond,
	})}
	if cfg.Loss > 0 {
		opts = append(opts, sim.WithLoss(netsim.UniformLoss{P: cfg.Loss}))
	}
	rt := sim.NewRuntime(s, opts...)

	svc := core.ServiceConfig{
		Primaries:    cfg.Primaries + 1, // + sequencer
		Secondaries:  cfg.Secondaries,
		LazyInterval: cfg.LUI,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
		ServiceDelay: func(r *rand.Rand) time.Duration {
			return stats.TruncNormalDuration(r, cfg.ServiceMean, cfg.ServiceStd, 0)
		},
		AssignBatch:       cfg.AssignBatch,
		AssignBatchWindow: cfg.AssignBatchWindow,
		Durable:           cfg.Durable,
		SnapshotEvery:     cfg.SnapshotEvery,
		Obs:               cfg.Obs,
		Tracer:            cfg.Trace.WithRun(cfg.runLabel(), sim.Epoch),
	}

	var (
		doneCount     int
		readResponses []float64
	)
	onDone := func() { doneCount++ }

	// Client 1: fixed loose QoS, as in the paper (staleness 4, 200 ms,
	// probability 0.1).
	var bgSelector selection.Selector
	if cfg.SelectorForAll {
		bgSelector = cfg.Selector
	}
	// The paper's clients never retransmit; retries exist for crash
	// recovery. Without failure injection, an effectively-infinite retry
	// interval keeps the measured latency tail faithful (a deferred read
	// must wait out the lazy interval, exactly as in the paper).
	retry := time.Duration(0)
	if cfg.Crash == "" {
		retry = 10 * time.Minute
	}
	run1 := alternatingDriver(cfg.Requests, cfg.RequestDelay, "doc1", nil, onDone)
	run2 := alternatingDriver(cfg.Requests, cfg.RequestDelay, "doc2", func(r client.Result) {
		readResponses = append(readResponses, float64(r.ResponseTime))
		if cfg.onReadResult != nil {
			cfg.onReadResult(r.ResponseTime)
		}
	}, onDone)
	client1 := core.ClientConfig{
		ID:            "c00",
		Spec:          qos.Spec{Staleness: 4, Deadline: 200 * time.Millisecond, MinProb: 0.1},
		Methods:       qos.NewMethods("Get", "Version"),
		WindowSize:    cfg.WindowSize,
		Selector:      bgSelector,
		RetryInterval: retry,
		Driver:        run1,
	}
	// Client 2: the measured client.
	client2 := core.ClientConfig{
		ID:               "c01",
		Spec:             qos.Spec{Staleness: cfg.Staleness, Deadline: cfg.Deadline, MinProb: cfg.MinProb},
		Methods:          qos.NewMethods("Get", "Version"),
		WindowSize:       cfg.WindowSize,
		Selector:         cfg.Selector,
		CountedEstimator: cfg.CountedEstimator,
		OnSelect:         cfg.OnSelect,
		RetryInterval:    retry,
		Driver:           run2,
	}

	deployClients := []core.ClientConfig{client1, client2}
	expectedDone := 2
	for i := 0; i < cfg.ExtraClients; i++ {
		deployClients = append(deployClients, core.ClientConfig{
			ID:            node.ID(fmt.Sprintf("c%02d", i+2)),
			Spec:          qos.Spec{Staleness: 4, Deadline: 200 * time.Millisecond, MinProb: 0.1},
			Methods:       qos.NewMethods("Get", "Version"),
			WindowSize:    cfg.WindowSize,
			Selector:      bgSelector,
			RetryInterval: retry,
			Driver: alternatingDriver(cfg.Requests, cfg.RequestDelay,
				fmt.Sprintf("doc%d", i+3), nil, onDone),
		})
		expectedDone++
	}
	d, err := core.Deploy(rt, svc, deployClients)
	if err != nil {
		panic(fmt.Sprintf("experiment: deploy: %v", err)) // static config bug
	}
	rt.Start()

	if cfg.Crash != "" {
		target := node.ID(cfg.Crash)
		switch cfg.Crash {
		case "sequencer":
			target = d.Sequencer
		case "publisher":
			target = d.ServingPrimaries[0]
		}
		s.After(cfg.CrashAt, func() { rt.Crash(target) })
	}

	// Run until both clients complete, with a generous virtual-time cap.
	perRequest := cfg.RequestDelay + 4*cfg.ServiceMean + cfg.LUI/4 + 500*time.Millisecond
	capAt := time.Duration(cfg.Requests+10) * perRequest * 2
	for elapsed := time.Duration(0); doneCount < expectedDone && elapsed < capAt; elapsed += time.Minute {
		s.RunFor(time.Minute)
	}
	s.RunFor(5 * time.Second) // drain stragglers
	rt.ObserveInto(cfg.Obs)

	m := d.Clients["c01"].Metrics()
	res := Fig4Result{
		Deadline:       cfg.Deadline,
		MinProb:        cfg.MinProb,
		LUI:            cfg.LUI,
		Reads:          m.Reads,
		TimingFailures: m.TimingFailures,
		Selections:     m.Selections,
		Done:           doneCount == expectedDone,
	}
	if m.Reads > 0 {
		res.FailureProb = float64(m.TimingFailures) / float64(m.Reads)
		res.CI = stats.BinomialConfidence(m.TimingFailures, m.Reads, 0.95)
		res.AvgSelected = float64(m.SelectedTotal) / float64(m.Reads)
	}
	if len(readResponses) > 0 {
		res.MeanResponse = time.Duration(stats.Summarize(readResponses).Mean)
	}
	return res
}

// Fig4Sweep runs the full Figure 4 grid: every deadline × (MinProb, LUI)
// combination from the paper.
type Fig4Sweep struct {
	Deadlines []time.Duration
	Configs   []struct {
		MinProb float64
		LUI     time.Duration
	}
	Base Fig4Config
}

// DefaultFig4Sweep reproduces the paper's axes: deadlines 80–220 ms and the
// four (probability, LUI) series.
func DefaultFig4Sweep() Fig4Sweep {
	sw := Fig4Sweep{
		Deadlines: []time.Duration{
			80 * time.Millisecond, 100 * time.Millisecond, 120 * time.Millisecond,
			140 * time.Millisecond, 160 * time.Millisecond, 180 * time.Millisecond,
			200 * time.Millisecond, 220 * time.Millisecond,
		},
	}
	for _, c := range []struct {
		MinProb float64
		LUI     time.Duration
	}{
		{0.9, 4 * time.Second},
		{0.5, 4 * time.Second},
		{0.9, 2 * time.Second},
		{0.5, 2 * time.Second},
	} {
		sw.Configs = append(sw.Configs, c)
	}
	return sw
}

// Run executes every point of the sweep, fanned across the package's
// configured worker count (see SetParallelism). Results are in grid order
// regardless of parallelism.
func (sw Fig4Sweep) Run() []Fig4Result {
	points := make([]Fig4Config, 0, len(sw.Configs)*len(sw.Deadlines))
	for _, cfg := range sw.Configs {
		for _, d := range sw.Deadlines {
			point := sw.Base
			point.Deadline = d
			point.MinProb = cfg.MinProb
			point.LUI = cfg.LUI
			point.Seed = sw.Base.Seed + int64(d/time.Millisecond) + int64(cfg.MinProb*1000) + int64(cfg.LUI/time.Millisecond)
			points = append(points, point)
		}
	}
	return runPoints(points, RunFig4Point)
}
