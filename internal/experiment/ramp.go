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
	"aqua/internal/shard"
	"aqua/internal/sim"
	"aqua/internal/workload"
)

// RampMode is one configuration the load ramp measures: how many
// share-nothing shards split the keyspace, and whether each shard's
// sequencer batches GSN assignment (with the frontier read fast path) or
// runs a window of one — the paper's per-request protocol (§4.1.1).
type RampMode struct {
	Shards  int  `json:"shards"`
	Batched bool `json:"batched"`
}

func (m RampMode) String() string {
	if m.Batched {
		return fmt.Sprintf("%d shard(s), batched + fast reads", m.Shards)
	}
	return fmt.Sprintf("%d shard(s), window of one", m.Shards)
}

// The deployment and sustained-rate criteria every ramp shares. Each shard
// is 3 serving primaries plus the sequencer and 2 secondaries with a 100ms
// lazy interval; a sequencer broadcast occupies its ordering pipeline for
// rampSeqCostBase + n·SeqCostPerReq, which is what makes per-request
// broadcasts saturate and amortized batches of up to 256 requests (1ms
// window) not. A step is sustained iff nothing is shed, windowed read p99
// stays within the deadline and the timing-failure rate within 1 %.
const (
	rampPrimaries      = 3
	rampSecondaries    = 2
	rampLUI            = 100 * time.Millisecond
	rampSeqCostBase    = 150 * time.Microsecond
	rampAssignBatch    = 256
	rampAssignWindow   = time.Millisecond
	rampMaxFailureRate = 0.01
)

// RampConfig parameterizes the heavy-traffic load ramp: an open-loop engine
// offers an increasing arrival rate against deployments whose sequencers pay
// a modelled ordering-pipeline cost per broadcast, and the experiment
// reports, per mode, the highest offered rate the service sustains. Every
// mode runs the identical ramp, so the peak ratio between two modes
// isolates what batching or scale-out buys. LoadmaxRamp and ShardmaxRamp
// are the two presets.
type RampConfig struct {
	// Name titles the table and the JSON report ("loadmax", "shardmax").
	Name string `json:"name"`
	// Seed is the base seed; the (mode, rate) step runs at
	// Seed + rate + 1_000_003·(shards−1).
	Seed int64 `json:"seed"`
	// Modes are measured in order; speedups are relative to the first.
	Modes []RampMode `json:"modes"`
	// Keys is the keyspace size requests draw uniformly from, partitioned
	// across shards; 0 sends every request to the single key "x".
	Keys int `json:"keys"`

	// ReadFraction is the read share of the offered stream, Staleness the
	// read staleness bound a, and Deadline both the per-read deadline and
	// the sustained-rate bound on windowed p99 read latency.
	ReadFraction float64       `json:"read_fraction"`
	Staleness    int           `json:"staleness"`
	Deadline     time.Duration `json:"deadline"`

	// Rates is the offered-rate ramp in requests/second. Warmup elapses
	// before each step's measurement window, which lasts StepDuration. Every
	// step is an independent run — share-nothing, like every sweep in this
	// package.
	Rates        []float64     `json:"rates"`
	Warmup       time.Duration `json:"warmup"`
	StepDuration time.Duration `json:"step_duration"`

	// SeqCostPerReq is each sequencer's per-request pipeline cost.
	SeqCostPerReq time.Duration `json:"seq_cost_per_req"`
}

// baseRamp holds the settings both presets share.
func baseRamp(name string, seed int64) RampConfig {
	return RampConfig{
		Name:         name,
		Seed:         seed,
		ReadFraction: 0.5,
		Deadline:     25 * time.Millisecond,
		Warmup:       500 * time.Millisecond,
		StepDuration: 2 * time.Second,
	}
}

// LoadmaxRamp is one ring, a window of one against batched assignment, over
// 1k → 64k offered/s: the group-commit win.
func LoadmaxRamp(seed int64) RampConfig {
	c := baseRamp("loadmax", seed)
	c.Modes = []RampMode{{Shards: 1}, {Shards: 1, Batched: true}}
	c.Rates = []float64{1000, 2000, 4000, 8000, 16000, 32000, 64000}
	c.SeqCostPerReq = 2 * time.Microsecond
	return c
}

// ShardmaxRamp is batched assignment at 1, 2 and 4 shards over a 4096-key
// uniform keyspace, 16k → 256k offered/s: the scale-out win. The per-request
// pipeline cost is above loadmax's so one sequencer saturates inside the
// ramp. The base seed is offset by 1,000,003 so every step keeps the seed
// it has always run at.
func ShardmaxRamp(seed int64) RampConfig {
	c := baseRamp("shardmax", seed+1_000_003)
	c.Modes = []RampMode{{Shards: 1, Batched: true}, {Shards: 2, Batched: true}, {Shards: 4, Batched: true}}
	c.Keys = 4096
	c.Rates = []float64{16000, 32000, 64000, 128000, 256000}
	c.SeqCostPerReq = 8 * time.Microsecond
	return c
}

// RampPoint is one measured step: one mode at one offered rate.
type RampPoint struct {
	OfferedRate float64 `json:"offered_rate"`

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

	// FastServed counts frontier fast-path reads across every shard's
	// serving primaries, AssignFlushes every shard sequencer's batch
	// flushes, and PerShardCompleted the completions per shard — the
	// balance evidence that the partition spreads the load. All cover the
	// whole run, not just the window.
	FastServed        uint64   `json:"fast_served"`
	AssignFlushes     uint64   `json:"assign_flushes"`
	PerShardCompleted []uint64 `json:"per_shard_completed"`

	Sustained bool `json:"sustained"`
}

// RampResult is one mode's full ramp with its peak sustained point.
type RampResult struct {
	Mode   RampMode    `json:"mode"`
	Points []RampPoint `json:"points"`

	// Peak* report the highest offered rate whose step met every bound,
	// with that step's completed throughput split by kind (all zero if no
	// step was sustained). Speedup* are the peak ratios over the first
	// mode's (0 if it has no peak).
	PeakRate          float64 `json:"peak_rate"`
	PeakUpdatesPerSec float64 `json:"peak_updates_per_sec"`
	PeakReadsPerSec   float64 `json:"peak_reads_per_sec"`
	SpeedupUpdates    float64 `json:"speedup_updates"`
	SpeedupRate       float64 `json:"speedup_rate"`
}

// RampReport is the full ramp across modes.
type RampReport struct {
	Config  RampConfig   `json:"config"`
	Results []RampResult `json:"results"`
}

// rampStep is one share-nothing unit of work for the sweep pool.
type rampStep struct {
	mode RampMode
	rate float64
}

// runRampPoint executes one step: deploy the mode's shards on one
// scheduler, warm up, measure one window.
func runRampPoint(cfg RampConfig, mode RampMode, rate float64) RampPoint {
	s := sim.NewScheduler(cfg.Seed + int64(rate) + 1_000_003*int64(mode.Shards-1))
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
		Min: 200 * time.Microsecond,
		Max: time.Millisecond,
	}))

	svc := core.ServiceConfig{
		Primaries:     rampPrimaries + 1, // + sequencer
		Secondaries:   rampSecondaries,
		LazyInterval:  rampLUI,
		Group:         group.DefaultConfig(),
		NewApp:        func() app.Application { return apps.NewKVStore() },
		SeqCostBase:   rampSeqCostBase,
		SeqCostPerReq: cfg.SeqCostPerReq,
	}
	if mode.Batched {
		svc.AssignBatch = rampAssignBatch
		svc.AssignBatchWindow = rampAssignWindow
		svc.FastReads = true
	}
	sd, err := core.DeployShards(rt, svc, mode.Shards, nil)
	if err != nil {
		panic(fmt.Sprintf("experiment: %s deploy: %v", cfg.Name, err)) // static config bug
	}
	var keys workload.KeyDist
	if cfg.Keys > 0 {
		keys = &workload.UniformKeys{N: cfg.Keys}
	}
	eng := workload.NewEngine(workload.EngineConfig{
		Arrivals:     workload.Poisson{Rate: rate},
		ReadFraction: cfg.ReadFraction,
		Staleness:    cfg.Staleness,
		Deadline:     cfg.Deadline,
		Keys:         keys,
		Shards:       sd.Infos,
		ShardOf:      shard.NewUniform(mode.Shards).Owner,
	})
	rt.Register("load", eng)
	rt.Start()

	s.RunFor(cfg.Warmup)
	before := eng.Metrics()
	s.RunFor(cfg.StepDuration)
	w := eng.Metrics().Sub(before)

	secs := cfg.StepDuration.Seconds()
	p := RampPoint{
		OfferedRate:   rate,
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
	for _, d := range sd.Shards {
		for _, id := range d.ServingPrimaries {
			p.FastServed += d.Replicas[id].FastServed()
		}
		flushes, _ := d.Replicas[d.Sequencer].AssignBatchStats()
		p.AssignFlushes += flushes
	}
	_, p.PerShardCompleted = eng.ShardCounts()
	// Timing failures over reads resolved in the window (completions plus
	// expiries — the open-loop denominator the bound is judged against).
	if denom := w.ReadsDone + w.Expired; denom > 0 {
		p.FailureRate = float64(w.TimingFailures) / float64(denom)
	}
	p.Sustained = w.Shed == 0 &&
		p.FailureRate <= rampMaxFailureRate &&
		p.ReadP99MS <= durMS(cfg.Deadline) &&
		w.ReadsDone > 0 && w.UpdatesDone > 0
	return p
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// RunRamp runs every mode × every rate as one sweep on the package worker
// pool and reports each mode's peak with speedups over the first mode.
func RunRamp(cfg RampConfig) RampReport {
	steps := make([]rampStep, 0, len(cfg.Modes)*len(cfg.Rates))
	for _, m := range cfg.Modes {
		for _, r := range cfg.Rates {
			steps = append(steps, rampStep{mode: m, rate: r})
		}
	}
	points := runPoints(steps, func(st rampStep) RampPoint {
		return runRampPoint(cfg, st.mode, st.rate)
	})
	rep := RampReport{Config: cfg}
	nr := len(cfg.Rates)
	for i, m := range cfg.Modes {
		res := RampResult{Mode: m, Points: points[i*nr : (i+1)*nr]}
		for _, p := range res.Points {
			if p.Sustained && p.OfferedRate > res.PeakRate {
				res.PeakRate = p.OfferedRate
				res.PeakUpdatesPerSec = p.UpdatesPerSec
				res.PeakReadsPerSec = p.ReadsPerSec
			}
		}
		rep.Results = append(rep.Results, res)
	}
	base := rep.Results[0]
	for i := range rep.Results {
		if base.PeakUpdatesPerSec > 0 {
			rep.Results[i].SpeedupUpdates = rep.Results[i].PeakUpdatesPerSec / base.PeakUpdatesPerSec
		}
		if base.PeakRate > 0 {
			rep.Results[i].SpeedupRate = rep.Results[i].PeakRate / base.PeakRate
		}
	}
	return rep
}

// WriteRampTable renders the ramp, one block per mode.
func WriteRampTable(w io.Writer, rep RampReport) {
	fmt.Fprintf(w, "%s — peak sustained throughput per mode, speedup over the first mode\n", rep.Config.Name)
	fmt.Fprintf(w, "(bounds: read p99 <= %.1fms, failure rate <= %.3f, no shed)\n\n",
		durMS(rep.Config.Deadline), rampMaxFailureRate)
	for _, res := range rep.Results {
		fmt.Fprintf(w, "%s\n", res.Mode)
		fmt.Fprintf(w, "%-12s %10s %10s %8s %10s %10s %10s %9s %8s %5s\n",
			"offered/s", "upd/s", "reads/s", "shed", "p50(ms)", "p99(ms)", "failRate", "fast", "flushes", "ok")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%-12.0f %10.0f %10.0f %8d %10.2f %10.2f %10.4f %9d %8d %5v\n",
				p.OfferedRate, p.UpdatesPerSec, p.ReadsPerSec, p.Shed,
				p.ReadP50MS, p.ReadP99MS, p.FailureRate, p.FastServed, p.AssignFlushes, p.Sustained)
		}
		fmt.Fprintf(w, "peak: %.0f offered/s (%.0f upd/s, %.0f reads/s), speedup %.2fx updates, %.2fx rate\n\n",
			res.PeakRate, res.PeakUpdatesPerSec, res.PeakReadsPerSec,
			res.SpeedupUpdates, res.SpeedupRate)
	}
}

// WriteRampJSON writes the report as indented JSON (aquabench -json).
func WriteRampJSON(w io.Writer, rep RampReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
