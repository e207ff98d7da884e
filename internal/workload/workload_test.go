package workload

import (
	"math/rand"
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/sim"
)

func deploy(t *testing.T, seed int64, drivers map[node.ID]Driver) (*sim.Scheduler, *core.Deployment) {
	t.Helper()
	s := sim.NewScheduler(seed)
	rt := sim.NewRuntime(s)
	var clients []core.ClientConfig
	for id, d := range drivers {
		clients = append(clients, core.ClientConfig{
			ID:      id,
			Spec:    qos.Spec{Staleness: 2, Deadline: time.Second, MinProb: 0.5},
			Methods: qos.NewMethods("Get", "Version"),
			Driver:  d,
		})
	}
	dep, err := core.Deploy(rt, core.ServiceConfig{
		Primaries:    3,
		Secondaries:  2,
		LazyInterval: time.Second,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return s, dep
}

func TestPoissonWritesCompleteAndAverageRate(t *testing.T) {
	const n = 100
	done := false
	var doneAt time.Time
	s, dep := deploy(t, 1, map[node.ID]Driver{
		"w": PoissonWrites(n, "k", 5.0, func() { done = true }),
	})
	start := s.Now()
	for i := 0; i < 60 && !done; i++ {
		s.RunFor(5 * time.Second)
	}
	doneAt = s.Now()
	if !done {
		t.Fatal("poisson writes never completed")
	}
	if got := dep.Replicas["p01"].Applied(); got != n {
		t.Fatalf("applied %d of %d", got, n)
	}
	// 100 events at 5/s ≈ 20s of arrivals (within a loose factor).
	elapsed := doneAt.Sub(start).Seconds()
	if elapsed < 10 || elapsed > 40 {
		t.Fatalf("poisson run took %.1fs, want ≈20s", elapsed)
	}
}

func TestBurstyWritesPattern(t *testing.T) {
	const n = 24
	done := false
	s, dep := deploy(t, 2, map[node.ID]Driver{
		"w": BurstyWrites(n, "k", 8, 2*time.Second, func() { done = true }),
	})
	for i := 0; i < 30 && !done; i++ {
		s.RunFor(2 * time.Second)
	}
	if !done {
		t.Fatal("bursty writes never completed")
	}
	if got := dep.Replicas["p01"].Applied(); got != n {
		t.Fatalf("applied %d of %d", got, n)
	}
}

func TestPeriodicReads(t *testing.T) {
	var results []client.Result
	done := false
	s, _ := deploy(t, 3, map[node.ID]Driver{
		"r": PeriodicReads(5, "Version", nil, 100*time.Millisecond,
			func(r client.Result) { results = append(results, r) },
			func() { done = true }),
	})
	for i := 0; i < 30 && !done; i++ {
		s.RunFor(time.Second)
	}
	if !done || len(results) != 5 {
		t.Fatalf("reads = %d done = %v", len(results), done)
	}
	for _, r := range results {
		if string(r.Payload) != "v0" {
			t.Fatalf("read = %+v", r)
		}
	}
}

func TestPoissonInterArrivalDistribution(t *testing.T) {
	// Sanity: the sampler's mean inter-arrival ≈ 1/rate.
	rng := rand.New(rand.NewSource(9))
	const rate = 4.0
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		sum += PoissonGap(rng, rate)
	}
	mean := (sum / n).Seconds()
	if mean < 0.2 || mean > 0.3 {
		t.Fatalf("mean inter-arrival %.3fs, want ≈0.25s", mean)
	}
}
