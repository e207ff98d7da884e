// Command aquabench regenerates every table and figure of the paper's
// evaluation on the deterministic simulator. See EXPERIMENTS.md for the
// mapping from experiment IDs to the paper's figures; the live stack's
// wall-clock benchmark is the separate bench/ module.
//
// Usage:
//
//	aquabench -experiment fig3|fig4a|fig4b|lui|reqdelay|baselines|hotspot|failover|all
//	aquabench -experiment fig4a -requests 200   # faster, noisier
//	aquabench -experiment chaos -chaos-runs 8 -faults crash,partition,link,seqkill
//	aquabench -experiment loadmax -json loadmax.json
//	aquabench -experiment shardmax -shards 1,2,4 -json shardmax.json
//	aquabench -experiment shardchaos -chaos-runs 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"aqua/internal/chaos"
	"aqua/internal/experiment"
	"aqua/internal/obs"
	"aqua/internal/sim"
)

func main() {
	var (
		which     = flag.String("experiment", "all", "experiment id: fig3, fig4a, fig4b, lui, reqdelay, baselines, hotspot, failover, calibration, groupsplit, window, estimator, scalability, loss, arrivals, chaos, loadmax, shardmax, shardchaos, all")
		requests  = flag.Int("requests", 1000, "requests per client per run (paper: 1000)")
		seed      = flag.Int64("seed", 2002, "base random seed")
		iters     = flag.Int("iters", 2000, "iterations per fig3 measurement point")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker count (1 = sequential; output is identical either way)")
		progress  = flag.Bool("progress", true, "report per-point sweep progress on stderr")
		obsPath   = flag.String("obs", "", "write an aggregated Prometheus-text metrics snapshot of all runs to this file")
		tracePath = flag.String("trace", "", "stream per-request JSONL trace spans (run-labelled) to this file")
		faults    = flag.String("faults", "crash,partition,link,seqkill", "chaos fault kinds to inject (comma list of crash, partition, link, seqkill)")
		chaosRuns = flag.Int("chaos-runs", 4, "number of seeded chaos runs (seeds seed..seed+n-1)")
		jsonPath  = flag.String("json", "", "also write the loadmax/shardmax report as JSON to this file")
		quick     = flag.Bool("quick", false, "shrink the loadmax/shardmax ramp for smoke runs (fewer rates, shorter steps)")
		shards    = flag.String("shards", "", "shard counts for the shardmax ramp, comma list (default 1,2,4)")
	)
	flag.Parse()

	experiment.SetParallelism(*parallel)
	if *progress {
		experiment.SetProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "aquabench: point %d/%d\n", done, total)
		})
	}

	if err := run(*which, *requests, *seed, *iters, *obsPath, *tracePath, *faults, *chaosRuns, *jsonPath, *quick, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "aquabench:", err)
		os.Exit(1)
	}
}

// parseFaults maps the -faults comma list onto generator fault rates.
func parseFaults(spec string) (chaos.GenConfig, error) {
	var cfg chaos.GenConfig
	for _, kind := range strings.Split(spec, ",") {
		switch strings.TrimSpace(kind) {
		case "":
		case "crash":
			cfg.Crashes = 3
		case "partition":
			cfg.Partitions = 2
		case "link":
			cfg.LinkFaults = 3
		case "seqkill":
			cfg.SequencerKill = true
		default:
			return cfg, fmt.Errorf("unknown fault kind %q (want crash, partition, link, seqkill)", kind)
		}
	}
	return cfg, nil
}

// runChaos executes the chaos sweep and reports per-invariant verdicts; a
// failing invariant fails the whole command.
func runChaos(out *os.File, requests int, seed int64, faultSpec string, runs int) error {
	gen, err := parseFaults(faultSpec)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	if requests > 200 {
		// Chaos verdicts converge long before the paper's request counts;
		// cap so '-experiment chaos' stays interactive at the default 1000.
		requests = 200
	}
	base := experiment.ChaosConfig{Requests: requests, Faults: gen}
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	results := experiment.RunChaosSweep(base, seeds)
	if err := experiment.WriteChaosTable(out, results); err != nil {
		return err
	}
	for i := range results {
		if !results[i].Report.OK() {
			return fmt.Errorf("chaos: invariant violations at seed %d", results[i].Seed)
		}
	}
	return nil
}

// rampPresets maps each load-ramp experiment to its preset and the shorter
// rate ladder -quick runs.
var rampPresets = map[string]struct {
	preset func(seed int64) experiment.RampConfig
	quick  []float64
}{
	"loadmax":  {experiment.LoadmaxRamp, []float64{1000, 4000, 16000}},
	"shardmax": {experiment.ShardmaxRamp, []float64{16000, 64000, 128000}},
}

// parseShards maps the -shards comma list onto ascending, distinct shard
// counts, so the first mode — the one speedups are relative to — is the
// smallest.
func parseShards(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil // the preset's default
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q (want a positive integer list like 1,2,4)", f)
		}
		out = append(out, n)
	}
	slices.Sort(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("shard count %d listed twice", out[i])
		}
	}
	return out, nil
}

// runRamp executes one load ramp (every mode in one sweep), prints the
// table, and optionally writes the JSON report. -shards replaces shardmax's
// modes with one batched mode per shard count.
func runRamp(out *os.File, which string, seed int64, shardsSpec, jsonPath string, quick bool) error {
	p := rampPresets[which]
	cfg := p.preset(seed)
	counts, err := parseShards(shardsSpec)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}
	if counts != nil {
		if which != "shardmax" {
			return fmt.Errorf("-shards applies to -experiment shardmax only")
		}
		cfg.Modes = nil
		for _, n := range counts {
			cfg.Modes = append(cfg.Modes, experiment.RampMode{Shards: n, Batched: true})
		}
	}
	if quick {
		cfg.Rates = p.quick
		cfg.Warmup = 200 * time.Millisecond
		cfg.StepDuration = 500 * time.Millisecond
	}
	rep := experiment.RunRamp(cfg)
	experiment.WriteRampTable(out, rep)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		defer f.Close()
		if err := experiment.WriteRampJSON(f, rep); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
	}
	return nil
}

// runShardChaos executes the sharded chaos acceptance scenario across seeded
// runs; any invariant violation, stalled loop, or failed split fails the
// whole command.
func runShardChaos(out *os.File, seed int64, runs int) error {
	for i := 0; i < runs; i++ {
		cfg := experiment.ShardChaosConfig{Seed: seed + int64(i)}
		res := experiment.RunShardChaosPoint(cfg)
		experiment.WriteShardChaosTable(out, cfg, res)
		for s := range res.Reports {
			if !res.Reports[s].OK() {
				return fmt.Errorf("shardchaos: invariant violations on shard %d at seed %d", s, cfg.Seed)
			}
		}
		if !res.Done {
			return fmt.Errorf("shardchaos: pinned clients stalled at seed %d", cfg.Seed)
		}
		if !res.MoveInstalled || res.MoveValue != "moved" {
			return fmt.Errorf("shardchaos: live split failed at seed %d (installed=%v, read %q)",
				cfg.Seed, res.MoveInstalled, res.MoveValue)
		}
	}
	return nil
}

func run(which string, requests int, seed int64, iters int, obsPath, tracePath, faultSpec string, chaosRuns int, jsonPath string, quick bool, shardsSpec string) error {
	base := experiment.Fig4Config{
		Seed:     seed,
		Deadline: 140 * time.Millisecond,
		MinProb:  0.9,
		LUI:      2 * time.Second,
		Requests: requests,
	}

	// Observability rides along without touching the tables: instruments
	// only record, so the virtual-time output below is byte-identical with
	// or without these flags.
	if obsPath != "" {
		base.Obs = obs.NewRegistry()
		defer func() {
			f, err := os.Create(obsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aquabench: -obs:", err)
				return
			}
			defer f.Close()
			if err := base.Obs.WritePrometheus(f); err != nil {
				fmt.Fprintln(os.Stderr, "aquabench: -obs:", err)
			}
		}()
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer f.Close()
		base.Trace = obs.NewTracer(f, sim.Epoch)
		defer base.Trace.Flush()
	}

	out := os.Stdout
	ran := false
	runFig4 := func() []experiment.Fig4Result {
		sw := experiment.DefaultFig4Sweep()
		sw.Base = base
		return sw.Run()
	}

	var fig4Cache []experiment.Fig4Result
	fig4 := func() []experiment.Fig4Result {
		if fig4Cache == nil {
			fig4Cache = runFig4()
		}
		return fig4Cache
	}

	if which == "fig3" || which == "all" {
		ran = true
		points := experiment.RunFig3(
			experiment.DefaultFig3ReplicaCounts(),
			experiment.DefaultFig3Windows(),
			iters, seed)
		experiment.WriteFig3Table(out, points)
		fmt.Fprintln(out)
	}
	if which == "fig4a" || which == "all" {
		ran = true
		experiment.WriteFig4aTable(out, fig4())
		fmt.Fprintln(out)
	}
	if which == "fig4b" || which == "all" {
		ran = true
		experiment.WriteFig4bTable(out, fig4())
		fmt.Fprintln(out)
	}
	if which == "lui" || which == "all" {
		ran = true
		luis := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second}
		res := experiment.RunLUISweep(base, luis)
		experiment.WriteSweepTable(out,
			"Extension (§7) — varying the lazy update interval (d=140ms, Pc=0.9)",
			"LUI", luis, res)
		fmt.Fprintln(out)
	}
	if which == "reqdelay" || which == "all" {
		ran = true
		delays := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second}
		res := experiment.RunRequestDelaySweep(base, delays)
		experiment.WriteSweepTable(out,
			"Extension (§7) — varying the request delay (d=140ms, Pc=0.9, LUI=2s)",
			"reqDelay", delays, res)
		fmt.Fprintln(out)
	}
	if which == "baselines" || which == "all" {
		ran = true
		res := experiment.RunBaselines(base)
		experiment.WriteSelectorTable(out,
			"Ablation — Algorithm 1 vs baseline selectors (d=140ms, Pc=0.9, LUI=2s)", res)
		fmt.Fprintln(out)
	}
	if which == "hotspot" || which == "all" {
		ran = true
		res := experiment.RunHotspot(base)
		experiment.WriteSelectorTable(out,
			"Ablation — anti-hot-spot (ert) ordering vs greedy best-CDF ordering", res)
		fmt.Fprintln(out)
	}
	if which == "failover" || which == "all" {
		ran = true
		res := experiment.RunFailover(base)
		experiment.WriteFailoverTable(out, res)
		fmt.Fprintln(out)
	}
	if which == "calibration" || which == "all" {
		ran = true
		res := experiment.RunCalibration(base, 10)
		experiment.WriteCalibrationTable(out, res)
		fmt.Fprintln(out)
	}
	if which == "groupsplit" || which == "all" {
		ran = true
		res := experiment.RunGroupSplitSweep(base, [][2]int{{2, 8}, {4, 6}, {6, 4}, {8, 2}})
		experiment.WriteGroupSplitTable(out, res)
		fmt.Fprintln(out)
	}
	if which == "window" || which == "all" {
		ran = true
		res := experiment.RunWindowSweep(base, []int{5, 10, 20, 40})
		experiment.WriteWindowTable(out, res)
		fmt.Fprintln(out)
	}
	if which == "estimator" || which == "all" {
		ran = true
		// Stress staleness: long lazy interval, fast clients (high λu) so
		// the estimators actually diverge.
		stress := base
		stress.LUI = 4 * time.Second
		stress.RequestDelay = 250 * time.Millisecond
		res := experiment.RunEstimatorAblation(stress)
		experiment.WriteEstimatorTable(out, res)
		fmt.Fprintln(out)
	}
	if which == "scalability" || which == "all" {
		ran = true
		scaled := base
		if scaled.Requests > 300 {
			scaled.Requests = 300 // N clients × N requests grows fast
		}
		res := experiment.RunScalability(scaled, []int{2, 4, 8, 12, 16})
		experiment.WriteScalabilityTable(out, res)
		fmt.Fprintln(out)
	}
	if which == "loss" || which == "all" {
		ran = true
		res := experiment.RunLossSweep(base, []float64{0, 0.01, 0.05, 0.10})
		experiment.WriteLossTable(out, res)
		fmt.Fprintln(out)
	}
	if which == "arrivals" || which == "all" {
		ran = true
		res := experiment.RunArrivals(seed, requests/2, requests/2)
		experiment.WriteArrivalsTable(out, res)
		fmt.Fprintln(out)
	}
	// Chaos is deliberately excluded from "all": it is a pass/fail protocol
	// audit, not a paper table, and keeping it out leaves the results file
	// byte-identical to earlier revisions.
	if which == "chaos" {
		ran = true
		if err := runChaos(out, requests, seed, faultSpec, chaosRuns); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	// The load ramps and shardchaos are likewise excluded from "all":
	// throughput benchmarks on a different (open-loop) workload and a
	// protocol audit, not paper tables.
	if _, ok := rampPresets[which]; ok {
		ran = true
		if err := runRamp(out, which, seed, shardsSpec, jsonPath, quick); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if which == "shardchaos" {
		ran = true
		if err := runShardChaos(out, seed, chaosRuns); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}
