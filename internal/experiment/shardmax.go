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

// ShardmaxConfig parameterizes the scale-out sweep: the loadmax open-loop
// ramp repeated at increasing shard counts, with the keyspace partitioned
// uniformly across independent sequencer/publisher deployments. Every shard
// count runs the identical ramp (same rates, same batching config), so the
// peak-sustained-throughput ratio between N shards and 1 isolates the
// scale-out win. The sequencer pipeline cost is tuned so a single ordering
// pipeline saturates inside the ramp — sharding moves the ceiling because
// each shard brings its own pipeline, not because any one gets faster.
type ShardmaxConfig struct {
	Seed int64

	// Shards is the ladder of shard counts to sweep (default 1, 2, 4).
	Shards []int
	// Keys is the partitioned keyspace size (default 4096); requests draw
	// keys uniformly so shards see balanced load.
	Keys int

	// Primaries counts serving primaries per shard (the sequencer is
	// extra); Secondaries the secondary group per shard. Defaults 3 and 2.
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

	// Deadline, P99Bound, MaxFailureRate are the sustained-rate criteria,
	// as in loadmax (defaults 25ms, = Deadline, 0.01).
	Deadline       time.Duration
	P99Bound       time.Duration
	MaxFailureRate float64

	// Rates is the offered-rate ramp in requests/second (default a
	// geometric ×2 ladder 16000..256000 — high enough that one sequencer
	// pipeline saturates well before the top).
	Rates []float64
	// Warmup elapses before each step's measurement window; the window
	// lasts StepDuration (defaults 500ms and 2s). Steps are share-nothing.
	Warmup       time.Duration
	StepDuration time.Duration

	// SeqCostBase/SeqCostPerReq model each shard's sequencer ordering
	// pipeline (defaults 150µs + 8µs/request — per-request cost above the
	// loadmax default so saturation arrives inside the default ramp).
	SeqCostBase   time.Duration
	SeqCostPerReq time.Duration
	// AssignBatch/AssignBatchWindow configure batched GSN assignment,
	// always on in this sweep (defaults 256 requests / 1ms window):
	// shardmax measures scale-out beyond what batching alone buys.
	AssignBatch       int
	AssignBatchWindow time.Duration
}

func (c *ShardmaxConfig) setDefaults() {
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4}
	}
	if c.Keys == 0 {
		c.Keys = 4096
	}
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
		c.Rates = []float64{16000, 32000, 64000, 128000, 256000}
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
		c.SeqCostPerReq = 8 * time.Microsecond
	}
	if c.AssignBatch == 0 {
		c.AssignBatch = 256
	}
	if c.AssignBatchWindow == 0 {
		c.AssignBatchWindow = time.Millisecond
	}
}

// ShardmaxPoint is one measured step: one shard count at one offered rate.
type ShardmaxPoint struct {
	Shards      int     `json:"shards"`
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

	// PerShardCompleted is the whole-run completion count per shard — the
	// balance evidence that the partition actually spreads the load.
	PerShardCompleted []uint64 `json:"per_shard_completed"`

	Sustained bool `json:"sustained"`
}

// ShardmaxResult is one shard count's full ramp with its peak.
type ShardmaxResult struct {
	Shards int             `json:"shards"`
	Points []ShardmaxPoint `json:"points"`

	// Peak* report the highest sustained offered rate and its completed
	// throughput split; SpeedupUpdates is this shard count's peak sustained
	// updates/sec over the 1-shard result's (1.0 for the 1-shard row, 0 if
	// no baseline peak).
	PeakRate          float64 `json:"peak_rate"`
	PeakUpdatesPerSec float64 `json:"peak_updates_per_sec"`
	PeakReadsPerSec   float64 `json:"peak_reads_per_sec"`
	SpeedupUpdates    float64 `json:"speedup_updates"`
	SpeedupRate       float64 `json:"speedup_rate"`
}

// ShardmaxReport is the full sweep across shard counts.
type ShardmaxReport struct {
	Config  ShardmaxConfig   `json:"config"`
	Results []ShardmaxResult `json:"results"`
}

// shardmaxStep is one share-nothing unit of work for the sweep pool.
type shardmaxStep struct {
	cfg    ShardmaxConfig
	shards int
	rate   float64
}

// RunShardmaxPoint executes one step: deploy shards sharing one scheduler,
// offer the rate through the engine's multi-shard mode, measure one window.
// The engine runs in multi-shard mode even at shards == 1 so every point of
// the sweep exercises the identical request path; the N=1 pin test holds
// that path byte-identical to a plain unsharded deployment.
func RunShardmaxPoint(cfg ShardmaxConfig, shards int, rate float64) ShardmaxPoint {
	cfg.setDefaults()

	s := sim.NewScheduler(cfg.Seed + int64(rate) + 1_000_003*int64(shards))
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
		Min: 200 * time.Microsecond,
		Max: time.Millisecond,
	}))

	svc := core.ServiceConfig{
		Primaries:         cfg.Primaries + 1, // + sequencer
		Secondaries:       cfg.Secondaries,
		LazyInterval:      cfg.LUI,
		Group:             group.DefaultConfig(),
		NewApp:            func() app.Application { return apps.NewKVStore() },
		SeqCostBase:       cfg.SeqCostBase,
		SeqCostPerReq:     cfg.SeqCostPerReq,
		AssignBatch:       cfg.AssignBatch,
		AssignBatchWindow: cfg.AssignBatchWindow,
		FastReads:         true,
	}
	sd, err := core.DeployShards(rt, svc, shards, nil)
	if err != nil {
		panic(fmt.Sprintf("experiment: shardmax deploy: %v", err)) // static config bug
	}
	m := shard.NewUniform(shards)
	eng := workload.NewEngine(workload.EngineConfig{
		Shards:       sd.Infos,
		ShardOf:      m.Owner,
		Keys:         &workload.UniformKeys{N: cfg.Keys},
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
	p := ShardmaxPoint{
		Shards:        shards,
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
	_, p.PerShardCompleted = eng.ShardCounts()
	if denom := w.ReadsDone + w.Expired; denom > 0 {
		p.FailureRate = float64(w.TimingFailures) / float64(denom)
	}
	p.Sustained = w.Shed == 0 &&
		p.FailureRate <= cfg.MaxFailureRate &&
		p.ReadP99MS <= durMS(cfg.P99Bound) &&
		w.ReadsDone > 0 && w.UpdatesDone > 0
	return p
}

// collectShardmax folds one shard count's points into a result.
func collectShardmax(shards int, points []ShardmaxPoint) ShardmaxResult {
	res := ShardmaxResult{Shards: shards, Points: points}
	for _, p := range points {
		if p.Sustained && p.OfferedRate > res.PeakRate {
			res.PeakRate = p.OfferedRate
			res.PeakUpdatesPerSec = p.UpdatesPerSec
			res.PeakReadsPerSec = p.ReadsPerSec
		}
	}
	return res
}

// RunShardmax runs the full sweep — every shard count × every rate fans
// across the package worker pool — and reports per-shard-count peaks with
// speedups relative to the 1-shard (or lowest) ladder entry.
func RunShardmax(cfg ShardmaxConfig) ShardmaxReport {
	cfg.setDefaults()
	steps := make([]shardmaxStep, 0, len(cfg.Shards)*len(cfg.Rates))
	for _, n := range cfg.Shards {
		for _, r := range cfg.Rates {
			steps = append(steps, shardmaxStep{cfg: cfg, shards: n, rate: r})
		}
	}
	points := runPoints(steps, func(st shardmaxStep) ShardmaxPoint {
		return RunShardmaxPoint(st.cfg, st.shards, st.rate)
	})
	rep := ShardmaxReport{Config: cfg}
	nr := len(cfg.Rates)
	for i, n := range cfg.Shards {
		rep.Results = append(rep.Results, collectShardmax(n, points[i*nr:(i+1)*nr]))
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

// WriteShardmaxTable renders the sweep, one ramp per shard count.
func WriteShardmaxTable(w io.Writer, rep ShardmaxReport) {
	fmt.Fprintln(w, "Shardmax — peak sustained throughput vs shard count (batched GSN assignment)")
	fmt.Fprintf(w, "(bounds: read p99 <= %.1fms, failure rate <= %.3f, no shed)\n\n",
		durMS(rep.Config.P99Bound), rep.Config.MaxFailureRate)
	for _, res := range rep.Results {
		fmt.Fprintf(w, "%d shard(s)\n", res.Shards)
		fmt.Fprintf(w, "%-12s %10s %10s %8s %10s %10s %10s %5s\n",
			"offered/s", "upd/s", "reads/s", "shed", "p50(ms)", "p99(ms)", "failRate", "ok")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%-12.0f %10.0f %10.0f %8d %10.2f %10.2f %10.4f %5v\n",
				p.OfferedRate, p.UpdatesPerSec, p.ReadsPerSec, p.Shed,
				p.ReadP50MS, p.ReadP99MS, p.FailureRate, p.Sustained)
		}
		fmt.Fprintf(w, "peak: %.0f offered/s (%.0f upd/s, %.0f reads/s), speedup %.2fx updates, %.2fx rate\n\n",
			res.PeakRate, res.PeakUpdatesPerSec, res.PeakReadsPerSec,
			res.SpeedupUpdates, res.SpeedupRate)
	}
}

// WriteShardmaxJSON writes the report as indented JSON (aquabench -shardmax-json).
func WriteShardmaxJSON(w io.Writer, rep ShardmaxReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string `json:"experiment"`
		ShardmaxReport
	}{Experiment: "shardmax", ShardmaxReport: rep})
}
