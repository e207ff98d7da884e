package experiment

import (
	"bytes"
	"reflect"
	"testing"
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

// TestFig4ShardedSingleIsByteIdentical is the byte-identity pin promised in
// Fig4Config: Sharded == 1 deploys through core.DeployShards and fronts the
// clients with shard routers, yet must reproduce the unsharded sweep exactly
// — same node IDs, same rand streams, same event order, same tables.
func TestFig4ShardedSingleIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 sweep in -short mode")
	}
	render := func(sharded int) ([]Fig4Result, []byte) {
		var results []Fig4Result
		for _, deadline := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
			results = append(results, RunFig4Point(Fig4Config{
				Seed:         77,
				Deadline:     deadline,
				MinProb:      0.05,
				Requests:     60,
				RequestDelay: 100 * time.Millisecond,
				Sharded:      sharded,
			}))
		}
		var buf bytes.Buffer
		WriteFig4aTable(&buf, results)
		WriteFig4bTable(&buf, results)
		return results, buf.Bytes()
	}

	plain, plainTab := render(0)
	single, singleTab := render(1)
	if !reflect.DeepEqual(plain, single) {
		t.Fatalf("Sharded=1 results diverged from unsharded:\n%+v\nvs\n%+v", plain, single)
	}
	if !bytes.Equal(plainTab, singleTab) {
		t.Fatalf("Sharded=1 tables diverged from unsharded:\n--- plain ---\n%s\n--- sharded=1 ---\n%s",
			plainTab, singleTab)
	}
}

// shardPinService mirrors RunShardmaxPoint's service config.
func shardPinService() core.ServiceConfig {
	return core.ServiceConfig{
		Primaries:         4,
		Secondaries:       2,
		LazyInterval:      100 * time.Millisecond,
		Group:             group.DefaultConfig(),
		NewApp:            func() app.Application { return apps.NewKVStore() },
		SeqCostBase:       150 * time.Microsecond,
		SeqCostPerReq:     8 * time.Microsecond,
		AssignBatch:       256,
		AssignBatchWindow: time.Millisecond,
		FastReads:         true,
	}
}

// TestShardmaxSingleShardMatchesUnsharded pins the shardmax half of the N=1
// contract at the engine level: the multi-shard request path over one shard
// must draw the same rands and send the same messages as the single-service
// path with the same key distribution, making every metric — including the
// full latency histograms — byte-identical.
func TestShardmaxSingleShardMatchesUnsharded(t *testing.T) {
	run := func(sharded bool) workload.EngineMetrics {
		s := sim.NewScheduler(99)
		rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
			Min: 200 * time.Microsecond,
			Max: time.Millisecond,
		}))
		ecfg := workload.EngineConfig{
			Keys:         &workload.UniformKeys{N: 4096},
			Clients:      2000,
			Arrivals:     workload.Poisson{Rate: 8000},
			ReadFraction: 0.5,
			Deadline:     25 * time.Millisecond,
		}
		if sharded {
			sd, err := core.DeployShards(rt, shardPinService(), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			ecfg.Shards = sd.Infos
			ecfg.ShardOf = shard.NewUniform(1).Owner
		} else {
			d, err := core.Deploy(rt, shardPinService(), nil)
			if err != nil {
				t.Fatal(err)
			}
			ecfg.Service = d.Info
		}
		eng := workload.NewEngine(ecfg)
		rt.Register("load", eng)
		rt.Start()
		s.RunFor(time.Second)
		return eng.Metrics()
	}

	sharded, unsharded := run(true), run(false)
	if sharded.Completed == 0 {
		t.Fatal("pin run completed nothing")
	}
	if !reflect.DeepEqual(sharded, unsharded) {
		t.Fatalf("one-shard engine metrics diverged from unsharded:\n%+v\nvs\n%+v", sharded, unsharded)
	}
}

// smokeShardmaxConfig is small enough for -race CI yet spans the single
// sequencer pipeline's saturation point (~105k/s at 150µs+8µs cost), so the
// 4-shard ramp demonstrably outlasts the 1-shard one.
func smokeShardmaxConfig() ShardmaxConfig {
	return ShardmaxConfig{
		Seed:         43,
		Shards:       []int{1, 4},
		Clients:      2000,
		Rates:        []float64{16000, 128000},
		Warmup:       200 * time.Millisecond,
		StepDuration: 500 * time.Millisecond,
	}
}

func TestShardmaxSmokeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("shardmax ramp in -short mode")
	}
	rep := RunShardmax(smokeShardmaxConfig())

	var buf bytes.Buffer
	WriteShardmaxTable(&buf, rep)
	t.Logf("\n%s", buf.String())

	one, four := rep.Results[0], rep.Results[1]
	if one.PeakRate == 0 {
		t.Fatal("one shard sustained nothing, even at the lowest rate")
	}
	if one.PeakRate >= rep.Config.Rates[len(rep.Config.Rates)-1] {
		t.Fatalf("one shard sustained the top rate %.0f — the ramp never found its ceiling", one.PeakRate)
	}
	if four.PeakRate <= one.PeakRate {
		t.Fatalf("4-shard peak %.0f not above 1-shard peak %.0f", four.PeakRate, one.PeakRate)
	}
	if four.SpeedupUpdates < 2.5 {
		t.Fatalf("4-shard speedup %.2fx below 2.5x even on the smoke ramp", four.SpeedupUpdates)
	}
	for _, p := range four.Points {
		if !p.Sustained {
			continue
		}
		if len(p.PerShardCompleted) != 4 {
			t.Fatalf("point at %.0f/s reports %d shards", p.OfferedRate, len(p.PerShardCompleted))
		}
		for i, c := range p.PerShardCompleted {
			if c == 0 {
				t.Fatalf("point at %.0f/s: shard %d completed nothing", p.OfferedRate, i)
			}
		}
	}
}

// TestShardmaxHotShardZipf is the hot-shard scenario: a Zipf key stream
// concentrates load on the shard owning the hottest keys, and the per-shard
// counters expose the skew while every shard still makes progress.
func TestShardmaxHotShardZipf(t *testing.T) {
	s := sim.NewScheduler(17)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
		Min: 200 * time.Microsecond,
		Max: time.Millisecond,
	}))
	const shards = 4
	sd, err := core.DeployShards(rt, shardPinService(), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := shard.NewUniform(shards)
	eng := workload.NewEngine(workload.EngineConfig{
		Shards:  sd.Infos,
		ShardOf: m.Owner,
		// 256 keys: enough that every shard owns a slice of the keyspace
		// (short sequential keys hash unevenly), while the Zipf head still
		// dominates the draw stream.
		Keys:         &workload.ZipfKeys{N: 256},
		Clients:      2000,
		Arrivals:     workload.Poisson{Rate: 8000},
		ReadFraction: 0.5,
		Deadline:     25 * time.Millisecond,
	})
	rt.Register("load", eng)
	rt.Start()
	s.RunFor(2 * time.Second)

	issued, completed := eng.ShardCounts()
	hot := m.Owner("k0")
	var total, min, max uint64
	min = issued[0]
	for i := 0; i < shards; i++ {
		total += issued[i]
		if issued[i] < min {
			min = issued[i]
		}
		if issued[i] > max {
			max = issued[i]
		}
		if completed[i] == 0 {
			t.Fatalf("shard %d completed nothing under the hot-key stream", i)
		}
	}
	if issued[hot] != max {
		t.Fatalf("shard %d owns the hottest key but shard counts are %v", hot, issued)
	}
	if issued[hot] <= total/shards {
		t.Fatalf("hot shard issued %d of %d — no skew above fair share", issued[hot], total)
	}
	if max < min*3/2 {
		t.Fatalf("skew too shallow: max %d vs min %d", max, min)
	}
	var done uint64
	for _, c := range completed {
		done += c
	}
	if done != eng.Metrics().Completed {
		t.Fatalf("per-shard completions %d != engine total %d", done, eng.Metrics().Completed)
	}
}

// TestShardmaxParallelismDeterminism mirrors the loadmax guarantee for the
// sharded sweep: byte-identical output at any worker-pool parallelism.
func TestShardmaxParallelismDeterminism(t *testing.T) {
	cfg := smokeShardmaxConfig()
	cfg.Shards = []int{1, 2}
	cfg.Rates = []float64{8000, 32000}
	cfg.StepDuration = 300 * time.Millisecond

	render := func(par int) []byte {
		old := Parallelism()
		SetParallelism(par)
		defer SetParallelism(old)
		rep := RunShardmax(cfg)
		var buf bytes.Buffer
		WriteShardmaxTable(&buf, rep)
		if err := WriteShardmaxJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	one := render(1)
	if got := render(4); !bytes.Equal(got, one) {
		t.Fatal("shardmax output diverged between parallelism 1 and 4")
	}
}
