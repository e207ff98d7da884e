package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/sim"
	"aqua/internal/workload"
)

// LoadmaxConfig parameterizes the heavy-traffic load ramp: an open-loop
// engine offers an increasing arrival rate against a deployment whose
// sequencer pays a modelled ordering-pipeline cost per broadcast, and the
// experiment reports the highest offered rate the service sustains — p99
// read latency and timing-failure rate inside their bounds, no load shed.
// Running the same ramp with and without batched GSN assignment (same
// seeds, same arrival streams) isolates the group-commit win.
type LoadmaxConfig struct {
	Seed int64

	// Primaries counts serving primaries (the sequencer is extra, as in
	// Fig4Config); Secondaries the secondary group. Defaults 3 and 2.
	Primaries   int
	Secondaries int
	// LUI is the lazy update interval (default 100ms).
	LUI time.Duration

	// Clients is the simulated open-loop population (default 10000).
	Clients int
	// ReadFraction is the read share of the offered stream (default 0.5).
	ReadFraction float64
	// Staleness is the read staleness bound a (default 0: sequential).
	Staleness int

	// Deadline is the per-read deadline (default 25ms); P99Bound the
	// sustained-rate criterion on windowed p99 read latency (default =
	// Deadline); MaxFailureRate the bound on the windowed timing-failure
	// rate (default 0.01).
	Deadline       time.Duration
	P99Bound       time.Duration
	MaxFailureRate float64

	// Rates is the offered-rate ramp in requests/second (default a
	// geometric ×2 ladder 1000..64000).
	Rates []float64
	// Warmup elapses before the measurement window of each step; the
	// window lasts StepDuration (defaults 500ms and 2s). Every step is an
	// independent run — share-nothing, like every sweep in this package.
	Warmup       time.Duration
	StepDuration time.Duration

	// SeqCostBase/SeqCostPerReq model the sequencer ordering pipeline
	// (defaults 150µs + 2µs/request): each broadcast occupies the pipeline
	// for base + n·perReq, which is what makes per-request broadcasts
	// saturate and amortized batches not.
	SeqCostBase   time.Duration
	SeqCostPerReq time.Duration
	// AssignBatch/AssignBatchWindow configure the batched mode (defaults
	// 256 requests / 1ms window).
	AssignBatch       int
	AssignBatchWindow time.Duration
}

func (c *LoadmaxConfig) setDefaults() {
	if c.Primaries == 0 {
		c.Primaries = 3
	}
	if c.Secondaries == 0 {
		c.Secondaries = 2
	}
	if c.LUI == 0 {
		c.LUI = 100 * time.Millisecond
	}
	if c.Clients == 0 {
		c.Clients = 10000
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.Deadline == 0 {
		c.Deadline = 25 * time.Millisecond
	}
	if c.P99Bound == 0 {
		c.P99Bound = c.Deadline
	}
	if c.MaxFailureRate == 0 {
		c.MaxFailureRate = 0.01
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{1000, 2000, 4000, 8000, 16000, 32000, 64000}
	}
	if c.Warmup == 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.StepDuration == 0 {
		c.StepDuration = 2 * time.Second
	}
	if c.SeqCostBase == 0 {
		c.SeqCostBase = 150 * time.Microsecond
	}
	if c.SeqCostPerReq == 0 {
		c.SeqCostPerReq = 2 * time.Microsecond
	}
	if c.AssignBatch == 0 {
		c.AssignBatch = 256
	}
	if c.AssignBatchWindow == 0 {
		c.AssignBatchWindow = time.Millisecond
	}
}

// LoadmaxPoint is one measured step of the ramp.
type LoadmaxPoint struct {
	OfferedRate float64 `json:"offered_rate"`
	Batched     bool    `json:"batched"`

	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Expired   uint64 `json:"expired"`

	UpdatesPerSec float64 `json:"updates_per_sec"`
	ReadsPerSec   float64 `json:"reads_per_sec"`

	ReadP50MS   float64 `json:"read_p50_ms"`
	ReadP99MS   float64 `json:"read_p99_ms"`
	UpdateP99MS float64 `json:"update_p99_ms"`
	FailureRate float64 `json:"failure_rate"`

	// FastServed counts frontier fast-path reads across serving replicas
	// (whole run, not just the window).
	FastServed uint64 `json:"fast_served"`
	// AssignFlushes counts sequencer batch flushes (whole run).
	AssignFlushes uint64 `json:"assign_flushes"`

	Sustained bool `json:"sustained"`
}

// LoadmaxResult is one mode's full ramp with its peak sustained point.
type LoadmaxResult struct {
	Batched bool           `json:"batched"`
	Points  []LoadmaxPoint `json:"points"`

	// Peak* report the highest offered rate whose step met every bound,
	// with that step's completed throughput split by kind. All zero if no
	// step was sustained.
	PeakRate          float64 `json:"peak_rate"`
	PeakUpdatesPerSec float64 `json:"peak_updates_per_sec"`
	PeakReadsPerSec   float64 `json:"peak_reads_per_sec"`
}

// LoadmaxPair is the same-run baseline comparison: identical ramp, seeds,
// and arrival streams, with only the sequencer's assignment mode (and the
// frontier read fast path) switched.
type LoadmaxPair struct {
	Config   LoadmaxConfig `json:"config"`
	Baseline LoadmaxResult `json:"baseline"`
	Batched  LoadmaxResult `json:"batched"`

	// SpeedupUpdates is batched peak sustained updates/sec over baseline;
	// SpeedupRate the same ratio on offered peak rate.
	SpeedupUpdates float64 `json:"speedup_updates"`
	SpeedupRate    float64 `json:"speedup_rate"`
}

// loadmaxStep is one share-nothing unit of work for the sweep pool.
type loadmaxStep struct {
	cfg     LoadmaxConfig
	rate    float64
	batched bool
}

// RunLoadmaxPoint executes one step: deploy, warm up, measure one window.
func RunLoadmaxPoint(cfg LoadmaxConfig, rate float64, batched bool) LoadmaxPoint {
	cfg.setDefaults()

	s := sim.NewScheduler(cfg.Seed + int64(rate))
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
		Min: 200 * time.Microsecond,
		Max: time.Millisecond,
	}))

	svc := core.ServiceConfig{
		Primaries:     cfg.Primaries + 1, // + sequencer
		Secondaries:   cfg.Secondaries,
		LazyInterval:  cfg.LUI,
		Group:         group.DefaultConfig(),
		NewApp:        func() app.Application { return apps.NewKVStore() },
		SeqCostBase:   cfg.SeqCostBase,
		SeqCostPerReq: cfg.SeqCostPerReq,
	}
	if batched {
		svc.AssignBatch = cfg.AssignBatch
		svc.AssignBatchWindow = cfg.AssignBatchWindow
		svc.FastReads = true
	}
	d, err := core.Deploy(rt, svc, nil)
	if err != nil {
		panic(fmt.Sprintf("experiment: loadmax deploy: %v", err)) // static config bug
	}
	eng := workload.NewEngine(workload.EngineConfig{
		Service:      d.Info,
		Clients:      cfg.Clients,
		Arrivals:     workload.Poisson{Rate: rate},
		ReadFraction: cfg.ReadFraction,
		Staleness:    cfg.Staleness,
		Deadline:     cfg.Deadline,
	})
	rt.Register("load", eng)
	rt.Start()

	s.RunFor(cfg.Warmup)
	before := eng.Metrics()
	s.RunFor(cfg.StepDuration)
	w := eng.Metrics().Sub(before)

	secs := cfg.StepDuration.Seconds()
	p := LoadmaxPoint{
		OfferedRate:   rate,
		Batched:       batched,
		Issued:        w.Issued,
		Completed:     w.Completed,
		Shed:          w.Shed,
		Expired:       w.Expired,
		UpdatesPerSec: float64(w.UpdatesDone) / secs,
		ReadsPerSec:   float64(w.ReadsDone) / secs,
		ReadP50MS:     durMS(w.ReadLatency.Quantile(0.50)),
		ReadP99MS:     durMS(w.ReadLatency.Quantile(0.99)),
		UpdateP99MS:   durMS(w.UpdateLatency.Quantile(0.99)),
	}
	for _, id := range d.ServingPrimaries {
		p.FastServed += d.Replicas[id].FastServed()
	}
	flushes, _ := d.Replicas[d.Sequencer].AssignBatchStats()
	p.AssignFlushes = flushes
	// Timing failures over reads resolved in the window (completions plus
	// expiries — the open-loop denominator the bound is judged against).
	if denom := w.ReadsDone + w.Expired; denom > 0 {
		p.FailureRate = float64(w.TimingFailures) / float64(denom)
	}
	p.Sustained = w.Shed == 0 &&
		p.FailureRate <= cfg.MaxFailureRate &&
		p.ReadP99MS <= durMS(cfg.P99Bound) &&
		w.ReadsDone > 0 && w.UpdatesDone > 0
	return p
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// collect folds one mode's points into a result with its peak.
func collectLoadmax(batched bool, points []LoadmaxPoint) LoadmaxResult {
	res := LoadmaxResult{Batched: batched, Points: points}
	for _, p := range points {
		if p.Sustained && p.OfferedRate > res.PeakRate {
			res.PeakRate = p.OfferedRate
			res.PeakUpdatesPerSec = p.UpdatesPerSec
			res.PeakReadsPerSec = p.ReadsPerSec
		}
	}
	return res
}

// RunLoadmax runs one mode's full ramp on the package worker pool.
func RunLoadmax(cfg LoadmaxConfig, batched bool) LoadmaxResult {
	cfg.setDefaults()
	steps := make([]loadmaxStep, len(cfg.Rates))
	for i, r := range cfg.Rates {
		steps[i] = loadmaxStep{cfg: cfg, rate: r, batched: batched}
	}
	points := runPoints(steps, func(st loadmaxStep) LoadmaxPoint {
		return RunLoadmaxPoint(st.cfg, st.rate, st.batched)
	})
	return collectLoadmax(batched, points)
}

// RunLoadmaxPair runs the baseline (unbatched, per-request broadcasts) and
// batched ramps as one sweep — every step of both modes fans across the
// same worker pool — and reports the peak-throughput ratio.
func RunLoadmaxPair(cfg LoadmaxConfig) LoadmaxPair {
	cfg.setDefaults()
	steps := make([]loadmaxStep, 0, 2*len(cfg.Rates))
	for _, batched := range []bool{false, true} {
		for _, r := range cfg.Rates {
			steps = append(steps, loadmaxStep{cfg: cfg, rate: r, batched: batched})
		}
	}
	points := runPoints(steps, func(st loadmaxStep) LoadmaxPoint {
		return RunLoadmaxPoint(st.cfg, st.rate, st.batched)
	})
	n := len(cfg.Rates)
	pair := LoadmaxPair{
		Config:   cfg,
		Baseline: collectLoadmax(false, points[:n]),
		Batched:  collectLoadmax(true, points[n:]),
	}
	if pair.Baseline.PeakUpdatesPerSec > 0 {
		pair.SpeedupUpdates = pair.Batched.PeakUpdatesPerSec / pair.Baseline.PeakUpdatesPerSec
	}
	if pair.Baseline.PeakRate > 0 {
		pair.SpeedupRate = pair.Batched.PeakRate / pair.Baseline.PeakRate
	}
	return pair
}

// WriteLoadmaxTable renders both ramps side by side.
func WriteLoadmaxTable(w io.Writer, pair LoadmaxPair) {
	fmt.Fprintln(w, "Loadmax — peak sustained throughput, batched GSN assignment vs per-request")
	fmt.Fprintf(w, "(bounds: read p99 <= %.1fms, failure rate <= %.3f, no shed)\n\n",
		durMS(pair.Config.P99Bound), pair.Config.MaxFailureRate)
	for _, res := range []LoadmaxResult{pair.Baseline, pair.Batched} {
		mode := "baseline (unbatched)"
		if res.Batched {
			mode = "batched + fast reads"
		}
		fmt.Fprintf(w, "%s\n", mode)
		fmt.Fprintf(w, "%-12s %10s %10s %8s %10s %10s %10s %9s %5s\n",
			"offered/s", "upd/s", "reads/s", "shed", "p50(ms)", "p99(ms)", "failRate", "fast", "ok")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%-12.0f %10.0f %10.0f %8d %10.2f %10.2f %10.4f %9d %5v\n",
				p.OfferedRate, p.UpdatesPerSec, p.ReadsPerSec, p.Shed,
				p.ReadP50MS, p.ReadP99MS, p.FailureRate, p.FastServed, p.Sustained)
		}
		fmt.Fprintf(w, "peak: %.0f offered/s (%.0f upd/s, %.0f reads/s)\n\n",
			res.PeakRate, res.PeakUpdatesPerSec, res.PeakReadsPerSec)
	}
	fmt.Fprintf(w, "speedup: %.2fx peak sustained updates/sec, %.2fx peak offered rate\n",
		pair.SpeedupUpdates, pair.SpeedupRate)
}

// WriteLoadmaxJSON writes the pair as indented JSON (aquabench -loadmax-json).
func WriteLoadmaxJSON(w io.Writer, pair LoadmaxPair) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string `json:"experiment"`
		LoadmaxPair
	}{Experiment: "loadmax", LoadmaxPair: pair})
}
