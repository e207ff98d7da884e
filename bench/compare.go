package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Repeatability tooling. `bench -repeat N` runs the whole set N times, each
// time with another seed, and prints per-metric min/median/max/spread;
// `bench compare A.json B.json` applies each end-to-end metric's bound to
// two such sets. Both use the statistics the driver uses: the median, and
// the distance between the first and third quartile as a share of it.

// resultSet is what -out writes and compare reads.
type resultSet struct {
	Host hostStamp   `json:"host"`
	Runs []recordRun `json:"runs"`
}

type recordRun struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostStamp is written into every result set: numbers from different hosts
// are not comparable, and this says which host a set came from.
type hostStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	FsyncUSP50 float64 `json:"host_fsync_us_p50"`
	Delay      string  `json:"message_delay"`
	Date       string  `json:"date"`
}

func stampHost() hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Delay:      "loopback only: latency is processor, timer and fsync time",
		Date:       time.Now().UTC().Format("2006-01-02"),
	}
	if dir, err := makeRunDir("fsync"); err == nil {
		h.FsyncUSP50, _ = fsyncCalibration(dir, 200*time.Millisecond)
		os.RemoveAll(dir)
	}
	return h
}

// quartiles returns Python's statistics.quantiles(values, n=4) — the
// exclusive method — which is what the driver computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is (q3-q1)/median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	return ratio(q3-q1, q2)
}

func (s *resultSet) values(workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// printSpreads prints one row per workload and end-to-end metric.
func (s *resultSet) printSpreads() {
	for _, w := range workloads {
		fmt.Printf("%s\n", w.Name)
		fmt.Printf("  %-20s %-9s %12s %12s %12s %8s %6s\n", "metric", "unit", "min", "median", "max", "spread", "bound")
		for _, m := range endToEnd {
			vals := s.values(w.Name, false, m.Name)
			if len(vals) == 0 {
				continue
			}
			_, med, _ := quartiles(vals)
			sort.Float64s(vals)
			fmt.Printf("  %-20s %-9s %12.4f %12.4f %12.4f %8.3f %6.2f\n",
				m.Name, m.Unit, vals[0], med, vals[len(vals)-1], spread(vals), m.Bound)
		}
	}
}

// runIsolated performs one run in a fresh process — exactly what the driver
// does — so a run never inherits the heap, page cache pressure or timers of
// the one before it. The child's report is passed through; its last line is
// the result.
func runIsolated(w *workloadSpec, seed int64, secs float64, traced bool) (driverResult, error) {
	var res driverResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'f', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	os.Stdout.Write(out[:len(out)-len(last)-1])
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s seed %d: no result line (%v)", w.Name, seed, runErr)
	}
	return res, nil // a violation shows as res.Correct == false
}

// repeatMain runs every workload n times untraced and once traced, each run
// with another seed.
func repeatMain(n int, seed int64, secs float64, out string) int {
	set := resultSet{Host: stampHost()}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, fsync p50 %.0f us; message delay %s\n",
		set.Host.NProc, set.Host.GOMAXPROCS, set.Host.GoVersion, set.Host.FsyncUSP50, set.Host.Delay)
	code := 0
	for i := 0; i < n; i++ {
		for wi := range workloads {
			w := &workloads[wi]
			for _, traced := range []bool{false, true} {
				if traced && i > 0 {
					continue // per-layer numbers once per set
				}
				s := seed + int64(i)
				res, err := runIsolated(w, s, secs, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if !res.Correct {
					code = 1
				}
				set.Runs = append(set.Runs, recordRun{Workload: w.Name, Seed: s, Traced: traced,
					Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
			}
		}
	}
	if n > 1 {
		fmt.Println()
		set.printSpreads()
	}
	if out != "" {
		b, err := json.MarshalIndent(&set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict compares B against A for one metric: "worse" when B's median is
// worse than A's by more than the bound, "unresolved" when either side's
// own spread is wider than the bound (the runs cannot tell), else "same".
func verdict(m metricSpec, a, b []float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	change := ratio(mb-ma, ma)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse", change
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved", change
	}
	return "same", change
}

// compareMain prints one row per workload and end-to-end metric and exits 1
// if any is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readSet(args[0])
	if err == nil {
		var b *resultSet
		if b, err = readSet(args[1]); err == nil {
			return compareSets(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareSets(a, b *resultSet) int {
	worse := 0
	for _, w := range workloads {
		fmt.Printf("%s\n", w.Name)
		fmt.Printf("  %-20s %-9s %12s %8s %12s %8s %8s %6s  %s\n",
			"metric", "unit", "A median", "A spread", "B median", "B spread", "worse by", "bound", "verdict")
		for _, m := range endToEnd {
			va, vb := a.values(w.Name, false, m.Name), b.values(w.Name, false, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(m, va, vb)
			if v == "worse" {
				worse++
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Printf("  %-20s %-9s %12.4f %8.3f %12.4f %8.3f %+8.3f %6.2f  %s\n",
				m.Name, m.Unit, ma, spread(va), mb, spread(vb), change, m.Bound, v)
		}
	}
	if worse > 0 {
		fmt.Printf("%d metric/workload pairs worse\n", worse)
		return 1
	}
	return 0
}
