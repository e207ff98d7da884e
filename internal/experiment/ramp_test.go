package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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

// smokeRamps are small enough for -race CI yet each spans its first mode's
// saturation point: the window of one saturates near 4k/s at 150µs+2µs
// pipeline cost, one batched sequencer near 105k/s at 150µs+8µs.
func smokeRamps() []RampConfig {
	load := LoadmaxRamp(41)
	load.Rates = []float64{1000, 4000, 16000}
	shards := ShardmaxRamp(43)
	shards.Modes = []RampMode{{Shards: 1, Batched: true}, {Shards: 4, Batched: true}}
	shards.Rates = []float64{16000, 128000}
	out := []RampConfig{load, shards}
	for i := range out {
		out[i].Warmup = 200 * time.Millisecond
		out[i].StepDuration = 500 * time.Millisecond
	}
	return out
}

var (
	smokeOnce    sync.Once
	smokeReports []RampReport
)

// runSmokeRamps runs the smoke ramps once for every test that reads them.
func runSmokeRamps() []RampReport {
	smokeOnce.Do(func() {
		for _, cfg := range smokeRamps() {
			smokeReports = append(smokeReports, RunRamp(cfg))
		}
	})
	return smokeReports
}

// TestRampSmoke checks both presets' claims on the smoke ramps: batching
// outlasts the window of one, and four shards outlast one.
func TestRampSmoke(t *testing.T) {
	for _, rep := range runSmokeRamps() {
		t.Run(rep.Config.Name, func(t *testing.T) {
			var buf bytes.Buffer
			WriteRampTable(&buf, rep)
			t.Logf("\n%s", buf.String())

			first, last := rep.Results[0], rep.Results[len(rep.Results)-1]
			if first.PeakRate == 0 {
				t.Fatal("first mode sustained nothing, even at the lowest rate")
			}
			if first.PeakRate >= rep.Config.Rates[len(rep.Config.Rates)-1] {
				t.Fatalf("first mode sustained the top rate %.0f — the ramp never found its ceiling", first.PeakRate)
			}
			if last.PeakRate <= first.PeakRate {
				t.Fatalf("%s peak %.0f not above %s peak %.0f", last.Mode, last.PeakRate, first.Mode, first.PeakRate)
			}
			if last.SpeedupUpdates < 2.5 {
				t.Fatalf("%s speedup %.2fx below 2.5x even on the smoke ramp", last.Mode, last.SpeedupUpdates)
			}
			for _, res := range rep.Results {
				for _, p := range res.Points {
					if !res.Mode.Batched && p.FastServed != 0 {
						t.Fatalf("%s at %.0f/s used the fast path (%d)", res.Mode, p.OfferedRate, p.FastServed)
					}
					if !p.Sustained {
						continue
					}
					if res.Mode.Batched && p.AssignFlushes == 0 {
						t.Fatalf("%s at %.0f/s recorded no assign-batch flushes", res.Mode, p.OfferedRate)
					}
					// The single-key stream always finds the frontier covered.
					if res.Mode.Batched && rep.Config.Keys == 0 && p.FastServed == 0 {
						t.Fatalf("%s at %.0f/s served no reads on the fast path", res.Mode, p.OfferedRate)
					}
					if len(p.PerShardCompleted) != res.Mode.Shards {
						t.Fatalf("%s at %.0f/s reports %d shards", res.Mode, p.OfferedRate, len(p.PerShardCompleted))
					}
					for i, c := range p.PerShardCompleted {
						if c == 0 {
							t.Fatalf("%s at %.0f/s: shard %d completed nothing", res.Mode, p.OfferedRate, i)
						}
					}
				}
			}
		})
	}
}

// goldenLine renders one ramp point in testdata/ramps.golden's format.
func goldenLine(name string, m RampMode, p RampPoint) string {
	return fmt.Sprintf("%s shards=%d batched=%t offered=%.0f issued=%d completed=%d shed=%d expired=%d upd/s=%g reads/s=%g p50=%g p99=%g upd_p99=%g fail=%g sustained=%t fast=%d flushes=%d\n",
		name, m.Shards, m.Batched, p.OfferedRate, p.Issued, p.Completed, p.Shed, p.Expired,
		p.UpdatesPerSec, p.ReadsPerSec, p.ReadP50MS, p.ReadP99MS, p.UpdateP99MS, p.FailureRate,
		p.Sustained, p.FastServed, p.AssignFlushes)
}

// TestRampGolden pins every point of both smoke ramps to a golden file
// recorded while loadmax (a plain Deploy and the engine's single-service
// mode) and shardmax were still separate drivers, with fast and flushes
// summed over shards. A divergence means the one ramp no longer reproduces
// either preset — a single shard is no longer the unsharded service.
func TestRampGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "ramps.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, rep := range runSmokeRamps() {
		for _, res := range rep.Results {
			for _, p := range res.Points {
				got.WriteString(goldenLine(rep.Config.Name, res.Mode, p))
			}
		}
	}
	if got.String() != string(want) {
		t.Fatalf("ramp points diverged from the golden:\n--- golden ---\n%s\n--- got ---\n%s", want, got.String())
	}
}

// checkRampParallelismDeterminism requires a ramp to render byte-identically
// at any worker-pool parallelism: each step is share-nothing, so scheduling
// order cannot leak into results.
func checkRampParallelismDeterminism(t *testing.T, cfg RampConfig) {
	t.Helper()
	cfg.Warmup = 200 * time.Millisecond
	cfg.StepDuration = 300 * time.Millisecond
	render := func(par int) []byte {
		old := Parallelism()
		SetParallelism(par)
		defer SetParallelism(old)
		rep := RunRamp(cfg)
		var buf bytes.Buffer
		WriteRampTable(&buf, rep)
		if err := WriteRampJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := render(1)
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := render(par); !bytes.Equal(got, one) {
			t.Fatalf("%s output diverged between parallelism 1 and %d", cfg.Name, par)
		}
	}
}

func TestLoadmaxParallelismDeterminism(t *testing.T) {
	cfg := LoadmaxRamp(41)
	cfg.Rates = []float64{2000, 8000}
	checkRampParallelismDeterminism(t, cfg)
}

func TestShardmaxParallelismDeterminism(t *testing.T) {
	cfg := ShardmaxRamp(43)
	cfg.Modes = []RampMode{{Shards: 1, Batched: true}, {Shards: 2, Batched: true}}
	cfg.Rates = []float64{8000, 32000}
	checkRampParallelismDeterminism(t, cfg)
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
	sd, err := core.DeployShards(rt, core.ServiceConfig{
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
