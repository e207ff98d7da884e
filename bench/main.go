// Command bench is the repository's one benchmark: four named workloads run
// through the whole stack (client gateway, Algorithm 1, TCP transport, live
// runtime, group substrate, sequencer, quorum floor, WAL, application), seven
// end-to-end metrics measured untraced, and a per-layer budget measured by a
// second, traced run that decorates only the program's public seams.
//
// The driver's contract (see BENCHMARK.json):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Developer commands:
//
//	bench -repeat N [-out set.json]   run every workload N times, print spreads
//	bench compare A.json B.json       apply each metric's bound to two sets
//	bench manifest                    print BENCHMARK.json from the tables in spec.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "manifest":
			return manifestMain()
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all four, untraced then traced)")
	seed := fs.Int64("seed", 2002, "seed for keys, the read/update coin, arrival gaps and the simulator")
	secs := fs.Float64("seconds", float64(defaultRunSeconds), "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the whole set N times and print per-metric min/median/max/spread")
	out := fs.String("out", "", "with -repeat: write the result set to this file for `bench compare`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat > 0 || *workload == "" {
		n := *repeat
		if n <= 0 {
			n = 1
		}
		return repeatMain(n, *seed, *secs, *out)
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	res, err := runOne(runOpts{W: w, Seed: *seed, Seconds: *secs, Trace: *trace != 0})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	printRun(w, *seed, *trace != 0, res)
	if err := json.NewEncoder(os.Stdout).Encode(driverLine(res, *trace != 0)); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if len(res.Violations) > 0 {
		return 1
	}
	return 0
}

// runOne dispatches one run to the workload's runner.
func runOne(o runOpts) (*runResult, error) {
	switch {
	case o.W.Sim && o.Trace:
		return runSimTraced(o)
	case o.W.Sim:
		return runSim(o)
	case o.Trace:
		return runLiveTraced(o)
	}
	return runLive(o)
}

// driverResult is the driver's result line.
type driverResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// specFor is the metric table a run of that mode reports.
func specFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func driverLine(res *runResult, traced bool) driverResult {
	return driverResult{
		Correct:   len(res.Violations) == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   res.Metrics.render(specFor(traced)),
	}
}

// printRun prints every metric by name with its unit, then the run's notes
// and any correctness violations.
func printRun(w *workloadSpec, seed int64, traced bool, res *runResult) {
	mode := "untraced, end-to-end metrics"
	if traced {
		mode = "traced, per-layer metrics"
	}
	fmt.Printf("== %s  seed %d  (%s)\n", w.Name, seed, mode)
	fmt.Printf("  host: nproc %d, GOMAXPROCS %d, %s; message delay loopback only\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, s := range specFor(traced) {
		fmt.Printf("  %-38s %14.4f %s\n", s.Name, res.Metrics[s.Name], s.Unit)
	}
	for _, n := range res.Notes {
		fmt.Printf("  # %s\n", n)
	}
	fmt.Printf("  attempted %d, failed %d\n", res.Attempted, res.Failed)
	sort.Strings(res.Violations)
	for i, v := range res.Violations {
		if i == 12 {
			fmt.Printf("  VIOLATION (+%d more)\n", len(res.Violations)-i)
			break
		}
		fmt.Printf("  VIOLATION %s\n", v)
	}
}

// manifest is BENCHMARK.json's shape.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// defaultRunSeconds is BENCHMARK.json's run_seconds: the driver makes
// 4 + 22 x 4 runs inside 3420 s, and one run costs its measured seconds plus
// about 7 s of set-up (three times), warm-up and drain.
const defaultRunSeconds = 20

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultRunSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{s.Name, s.Unit, s.Better})
	}
	return m
}

func manifestMain() int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}
