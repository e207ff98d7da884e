package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// The smoke test runs every workload, untraced and traced, at a small
// fraction of the benchmark's scale. It asserts shape, not speed: every
// named metric is reported, finite and carries its unit; correctness checks,
// oracles and the durability audit pass; the generator fits the host; and
// the request stream is a function of the seed alone.

func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			spec := specFor(traced)
			t.Run(name, func(t *testing.T) {
				res, err := runOne(runOpts{W: w, Seed: 2002, Seconds: 0.4, Trace: traced,
					SetupRepeats: 1, ProbeMin: 2 * time.Millisecond, RateScale: 0.1})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range res.Violations {
					t.Errorf("violation: %s", v)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				known := map[string]bool{}
				for _, s := range spec {
					known[s.Name] = true
				}
				for name := range res.Metrics {
					if !known[name] {
						t.Errorf("run produced %q, which the %s table does not name", name, map[bool]string{false: "end-to-end", true: "per-layer"}[traced])
					}
				}
				line := driverLine(res, traced)
				for _, s := range spec {
					m, ok := line.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("%s missing from the result line", s.Name)
					case m.Unit != s.Unit:
						t.Errorf("%s: unit %q, want %q", s.Name, m.Unit, s.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s is not finite", s.Name)
					}
				}
			})
		}
	}
}

func TestGeneratorFitsTheHost(t *testing.T) {
	if n := nClients(); n < 1 || n > runtime.NumCPU() {
		t.Fatalf("%d client gateways (one generator goroutine each) on %d processors", n, runtime.NumCPU())
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.Sim {
			continue
		}
		a, b, c := streamDigest(7, 0, w, 500), streamDigest(7, 0, w, 500), streamDigest(8, 0, w, 500)
		if a != b {
			t.Errorf("%s: one seed generated two different streams", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", w.Name)
		}
		if a == streamDigest(7, 1, w, 500) {
			t.Errorf("%s: clients 0 and 1 generated the same stream", w.Name)
		}
	}
	// The simulator is seeded the same way: one seed, one trace.
	x, err := runSimRep(simSeed(5, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	y, err := runSimRep(simSeed(5, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	z, err := runSimRep(simSeed(6, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	if x.events != y.events || x.msgs != y.msgs || x.unavailableMS != y.unavailableMS {
		t.Errorf("one simulator seed gave two runs: %d/%d events, %d/%d messages", x.events, y.events, x.msgs, y.msgs)
	}
	if x.events == z.events && x.msgs == z.msgs {
		t.Errorf("simulator seeds 5 and 6 gave identical runs")
	}
}

// TestAuditCatchesLyingMedia: the durability audit passes over honest media
// and fails when two of three primaries acknowledge appends they drop.
func TestAuditCatchesLyingMedia(t *testing.T) {
	if err := auditSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestManifest keeps BENCHMARK.json and the tables in spec.go in step, and
// inside the limits the driver checks before a single run.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run -C bench . manifest > BENCHMARK.json`")
	}
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, e := range m.EndToEnd {
		if seen[e.Name] {
			t.Errorf("metric name %q used twice", e.Name)
		}
		seen[e.Name] = true
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Errorf("no setup_s metric")
	}
	for _, e := range m.PerLayer {
		if seen[e.Name] {
			t.Errorf("metric name %q used twice", e.Name)
		}
		seen[e.Name] = true
		if len(e.Name) > 64 || len(e.Unit) > 16 {
			t.Errorf("%s: name or unit too long", e.Name)
		}
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	// Budget: 4 + 22 x workloads runs inside 3420 s, with two builds.
	runs := 4 + 22*len(m.Workloads)
	if perRun := 3420.0/float64(runs) - 2; float64(m.RunSeconds)+9 > perRun {
		t.Errorf("run_seconds %d leaves too little of the %.1f s a run may take", m.RunSeconds, perRun)
	}
}

// TestQuartiles pins the statistic to Python's statistics.quantiles(n=4),
// which is what the driver computes.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "y", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slow := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, steady, "same"},
		{lower, steady, slow, "worse"},
		{lower, slow, steady, "same"},
		{higher, slow, steady, "worse"},
		{lower, steady, noisy, "unresolved"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s %s): %s, want %s", c.m.Name, c.m.Better, got, c.want)
		}
	}
}
