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
			Arrivals:     workload.Poisson{Rate: 500},
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

// Mean-rate sanity for the arrival process, without a deployment: the
// empirical rate over many gaps must track the nominal mean.
func TestProcessMeanRates(t *testing.T) {
	meanRate := func(p workload.Process) float64 {
		r := rand.New(rand.NewSource(42))
		var elapsed time.Duration
		const n = 200000
		for i := 0; i < n; i++ {
			elapsed += p.Gap(r)
		}
		return n / elapsed.Seconds()
	}
	if got := meanRate(workload.Poisson{Rate: 500}); math.Abs(got-500) > 25 {
		t.Errorf("Poisson mean rate %.1f, want ~500", got)
	}
}
