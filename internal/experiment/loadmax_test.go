package experiment

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// smokeLoadmaxConfig is small enough for -race CI yet still spans the
// unbatched sequencer's saturation point (~4k/s at 150µs+2µs pipeline
// cost), so the batched ramp demonstrably outlasts the baseline.
func smokeLoadmaxConfig() LoadmaxConfig {
	return LoadmaxConfig{
		Seed:         41,
		Clients:      2000,
		Rates:        []float64{1000, 4000, 16000},
		Warmup:       200 * time.Millisecond,
		StepDuration: 500 * time.Millisecond,
	}
}

func TestLoadmaxBatchingSpeedup(t *testing.T) {
	pair := RunLoadmaxPair(smokeLoadmaxConfig())

	var buf bytes.Buffer
	WriteLoadmaxTable(&buf, pair)
	t.Logf("\n%s", buf.String())

	if pair.Baseline.PeakRate == 0 {
		t.Fatal("baseline sustained nothing, even at the lowest rate")
	}
	if pair.Baseline.PeakRate >= pair.Config.Rates[len(pair.Config.Rates)-1] {
		t.Fatalf("baseline sustained the top rate %.0f — the ramp never found its ceiling", pair.Baseline.PeakRate)
	}
	if pair.Batched.PeakRate <= pair.Baseline.PeakRate {
		t.Fatalf("batched peak %.0f not above baseline peak %.0f", pair.Batched.PeakRate, pair.Baseline.PeakRate)
	}
	if pair.SpeedupUpdates < 2.5 {
		t.Fatalf("speedup %.2fx below 2.5x even on the smoke ramp", pair.SpeedupUpdates)
	}
	for _, p := range pair.Batched.Points {
		if p.Sustained && p.AssignFlushes == 0 {
			t.Fatalf("batched point at %.0f/s recorded no assign-batch flushes", p.OfferedRate)
		}
		if p.Sustained && p.FastServed == 0 {
			t.Fatalf("batched point at %.0f/s served no reads on the fast path", p.OfferedRate)
		}
	}
	for _, p := range pair.Baseline.Points {
		if p.FastServed != 0 {
			t.Fatalf("baseline point at %.0f/s used the fast path (%d)", p.OfferedRate, p.FastServed)
		}
	}
}

// The loadmax sweep must render byte-identically at any worker-pool
// parallelism: each step is share-nothing, so scheduling order cannot leak
// into results.
func TestLoadmaxParallelismDeterminism(t *testing.T) {
	cfg := smokeLoadmaxConfig()
	cfg.Rates = []float64{2000, 8000}
	cfg.StepDuration = 300 * time.Millisecond

	render := func(par int) []byte {
		old := Parallelism()
		SetParallelism(par)
		defer SetParallelism(old)
		pair := RunLoadmaxPair(cfg)
		var buf bytes.Buffer
		WriteLoadmaxTable(&buf, pair)
		if err := WriteLoadmaxJSON(&buf, pair); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	one := render(1)
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := render(par); !bytes.Equal(got, one) {
			t.Fatalf("loadmax output diverged between parallelism 1 and %d", par)
		}
	}
}
