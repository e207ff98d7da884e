package workload_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/sim"
	"aqua/internal/workload"
)

const ms = time.Millisecond

func deployWithEngine(t *testing.T, seed int64, ecfg workload.EngineConfig) (*sim.Scheduler, *workload.Engine) {
	t.Helper()
	s := sim.NewScheduler(seed)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{Min: 200 * time.Microsecond, Max: ms}))
	d, err := core.Deploy(rt, core.ServiceConfig{
		Primaries:    3,
		Secondaries:  1,
		LazyInterval: 20 * ms,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ecfg.Shards = []client.ServiceInfo{d.Info}
	eng := workload.NewEngine(ecfg)
	rt.Register("load", eng)
	rt.Start()
	return s, eng
}

func TestEngineOpenLoopMix(t *testing.T) {
	const rate = 400.0
	s, eng := deployWithEngine(t, 7, workload.EngineConfig{
		Arrivals:     workload.Poisson{Rate: rate},
		ReadFraction: 0.5,
		Deadline:     50 * ms,
	})
	s.RunFor(4 * time.Second)
	m := eng.Metrics()

	want := rate * 4
	if float64(m.Issued) < 0.8*want || float64(m.Issued) > 1.2*want {
		t.Fatalf("issued %d, want ~%.0f (open loop should track the offered rate)", m.Issued, want)
	}
	if m.Reads+m.Updates != m.Issued {
		t.Fatalf("mix bookkeeping: %d reads + %d updates != %d issued", m.Reads, m.Updates, m.Issued)
	}
	frac := float64(m.Reads) / float64(m.Issued)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("read fraction %.2f, want ~0.5", frac)
	}
	if m.Shed != 0 || m.Expired != 0 {
		t.Fatalf("unloaded run shed %d / expired %d requests", m.Shed, m.Expired)
	}
	// Everything issued either completed or is still in flight.
	if m.Completed+uint64(eng.Pending()) != m.Issued {
		t.Fatalf("completed %d + pending %d != issued %d", m.Completed, eng.Pending(), m.Issued)
	}
	if float64(m.Completed) < 0.95*float64(m.Issued) {
		t.Fatalf("only %d/%d completed on an unloaded service", m.Completed, m.Issued)
	}
	if got := m.ReadLatency.Total() + m.UpdateLatency.Total(); got != m.Completed {
		t.Fatalf("latency histograms hold %d obs, want %d", got, m.Completed)
	}
	if p99 := m.ReadLatency.Quantile(0.99); p99 <= 0 || p99 > 50*ms {
		t.Fatalf("read p99 %v out of range for an unloaded service", p99)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() workload.EngineMetrics {
		s, eng := deployWithEngine(t, 23, workload.EngineConfig{
			Arrivals:     &workload.MMPP{LowRate: 100, HighRate: 800, MeanLow: 200 * ms, MeanHigh: 100 * ms},
			ReadFraction: 0.7,
		})
		s.RunFor(2 * time.Second)
		return eng.Metrics()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// Mean-rate sanity for the arrival processes, without a deployment: the
// empirical rate over many gaps must track each process's nominal mean.
func TestProcessMeanRates(t *testing.T) {
	meanRate := func(p workload.Process) float64 {
		r := rand.New(rand.NewSource(42))
		var elapsed time.Duration
		const n = 200000
		for i := 0; i < n; i++ {
			elapsed += p.Gap(r, elapsed)
		}
		return n / elapsed.Seconds()
	}
	if got := meanRate(workload.Poisson{Rate: 500}); math.Abs(got-500) > 25 {
		t.Errorf("Poisson mean rate %.1f, want ~500", got)
	}
	// MMPP spends equal time in each state: mean rate = (100+900)/2.
	mmpp := &workload.MMPP{LowRate: 100, HighRate: 900, MeanLow: 50 * ms, MeanHigh: 50 * ms}
	if got := meanRate(mmpp); math.Abs(got-500) > 50 {
		t.Errorf("MMPP mean rate %.1f, want ~500", got)
	}
	// The sinusoid averages to the midpoint of Base and Peak.
	diurnal := workload.Diurnal{Base: 100, Peak: 900, Period: 2 * time.Second}
	if got := meanRate(diurnal); math.Abs(got-500) > 50 {
		t.Errorf("Diurnal mean rate %.1f, want ~500", got)
	}
}

func TestDiurnalTracksPhase(t *testing.T) {
	// At the trough (elapsed ≈ 0 mod Period) gaps should be long; at the
	// crest (elapsed ≈ Period/2) short. Compare empirical rates pinned at
	// the two phases.
	r := rand.New(rand.NewSource(9))
	d := workload.Diurnal{Base: 50, Peak: 1000, Period: 10 * time.Second}
	rateAt := func(phase time.Duration) float64 {
		var sum time.Duration
		const n = 20000
		for i := 0; i < n; i++ {
			sum += d.Gap(r, phase)
		}
		return n / sum.Seconds()
	}
	trough, crest := rateAt(0), rateAt(5*time.Second)
	if crest < 5*trough {
		t.Fatalf("crest rate %.0f not ≫ trough rate %.0f", crest, trough)
	}
}
