// Command aquabench regenerates every table and figure of the paper's
// evaluation on the deterministic simulator. See EXPERIMENTS.md for the
// mapping from experiment IDs to the paper's figures; the live stack's
// wall-clock benchmark is the separate bench/ module.
//
// Usage:
//
//	aquabench -experiment fig3|fig4a|fig4b|lui|reqdelay|baselines|hotspot|failover|groupsplit|window|estimator|scalability|loss|calibration|arrivals|all
//	aquabench -experiment fig4a -requests 200   # faster, noisier
//	aquabench -experiment chaos -chaos-runs 8 -faults crash,partition,link,seqkill   # every chaos row
//	aquabench -experiment loadmax -json loadmax.json
//	aquabench -experiment shardmax -shards 1,2,4 -json shardmax.json
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
		which     = flag.String("experiment", "all", "experiment id: "+strings.Join(experimentIDs(), ", "))
		requests  = flag.Int("requests", 1000, "requests per client per run (paper: 1000)")
		seed      = flag.Int64("seed", 2002, "base random seed")
		iters     = flag.Int("iters", 2000, "iterations per fig3 measurement point")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker count (1 = sequential; output is identical either way)")
		progress  = flag.Bool("progress", true, "report per-point sweep progress on stderr")
		obsPath   = flag.String("obs", "", "write an aggregated Prometheus-text metrics snapshot of all runs to this file")
		tracePath = flag.String("trace", "", "stream per-request JSONL trace spans (run-labelled) to this file")
		faults    = flag.String("faults", "crash,partition,link,seqkill", "chaos fault kinds to inject into every generated row (comma list of crash, partition, link, seqkill)")
		chaosRuns = flag.Int("chaos-runs", 4, "number of seeded chaos runs per row (seeds seed..seed+n-1)")
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

// experimentIDs lists every -experiment id, the Fig4 studies read from
// experiment.Studies.
func experimentIDs() []string {
	ids := []string{"fig3", "fig4a", "fig4b"}
	for _, st := range experiment.Studies() {
		ids = append(ids, st.ID)
	}
	return append(ids, "calibration", "arrivals", "chaos", "loadmax", "shardmax", "all")
}

// runChaos runs every row of the chaos table in order, each over the seeds
// seed..seed+runs-1 with the -faults kinds (rows with a fixed schedule
// ignore them), and reports per-invariant verdicts; a failing run fails the
// whole command.
func runChaos(out *os.File, requests int, seed int64, faultSpec string, runs int) error {
	if runs < 1 {
		return fmt.Errorf("-chaos-runs %d: want at least 1 run", runs)
	}
	faults, err := chaos.ParseFaults(faultSpec)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	// Chaos verdicts converge long before the paper's request counts; cap
	// so '-experiment chaos' stays interactive at the default 1000.
	requests = min(requests, 200)
	presets, failed := experiment.ChaosPresets(), 0
	for _, p := range presets {
		results := experiment.RunChaosSweep(p.With(faults, requests), seed, runs)
		if err := experiment.WriteChaosTable(out, p.Name, results); err != nil {
			return err
		}
		for i := range results {
			if !results[i].OK() {
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos: %d of %d runs failed", failed, runs*len(presets))
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

func run(which string, requests int, seed int64, iters int, obsPath, tracePath, faultSpec string, chaosRuns int, jsonPath string, quick bool, shardsSpec string) error {
	if !slices.Contains(experimentIDs(), which) {
		return fmt.Errorf("unknown experiment %q", which)
	}
	if requests < 1 {
		return fmt.Errorf("-requests %d: want at least 1 request", requests)
	}
	if iters < 1 {
		return fmt.Errorf("-iters %d: want at least 1 iteration", iters)
	}
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
	if which == "fig3" || which == "all" {
		points := experiment.RunFig3(
			experiment.DefaultFig3ReplicaCounts(),
			experiment.DefaultFig3Windows(),
			iters, seed)
		experiment.WriteFig3Table(out, points)
		fmt.Fprintln(out)
	}
	var fig4 []experiment.Fig4Result // one sweep serves both fig4 tables
	if which == "fig4a" || which == "fig4b" || which == "all" {
		sw := experiment.DefaultFig4Sweep()
		sw.Base = base
		fig4 = sw.Run()
	}
	if which == "fig4a" || which == "all" {
		experiment.WriteFig4aTable(out, fig4)
		fmt.Fprintln(out)
	}
	if which == "fig4b" || which == "all" {
		experiment.WriteFig4bTable(out, fig4)
		fmt.Fprintln(out)
	}
	for _, st := range experiment.Studies() {
		if which == st.ID || which == "all" {
			experiment.WriteStudyTable(out, st, experiment.RunStudy(st, base))
			fmt.Fprintln(out)
		}
		// Calibration is not a one-axis study, but its table has always
		// printed between failover's and groupsplit's.
		if st.ID == "failover" && (which == "calibration" || which == "all") {
			experiment.WriteCalibrationTable(out, experiment.RunCalibration(base, 10))
			fmt.Fprintln(out)
		}
	}
	if which == "arrivals" || which == "all" {
		res := experiment.RunArrivals(seed, requests/2, requests/2)
		experiment.WriteArrivalsTable(out, res)
		fmt.Fprintln(out)
	}
	// Chaos is deliberately excluded from "all": it is a pass/fail protocol
	// audit, not a paper table, and keeping it out leaves the results file
	// byte-identical to earlier revisions.
	if which == "chaos" {
		if err := runChaos(out, requests, seed, faultSpec, chaosRuns); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	// The load ramps are likewise excluded from "all": throughput
	// benchmarks on a different (open-loop) workload, not paper tables.
	if _, ok := rampPresets[which]; ok {
		if err := runRamp(out, which, seed, shardsSpec, jsonPath, quick); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}
