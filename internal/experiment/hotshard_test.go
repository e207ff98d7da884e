package experiment

import (
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
	sd, err := core.DeployShards(rt, core.ServiceConfig{
		Primaries:         4,
		Secondaries:       2,
		LazyInterval:      100 * time.Millisecond,
		Group:             group.DefaultConfig(),
		NewApp:            func() app.Application { return apps.NewKVStore() },
		AssignBatch:       256,
		AssignBatchWindow: time.Millisecond,
		FastReads:         true,
	}, shards, nil)
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
