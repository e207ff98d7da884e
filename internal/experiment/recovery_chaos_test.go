package experiment

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"aqua/internal/chaos"
	"aqua/internal/check"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/replica"
	"aqua/internal/sim"
	"aqua/internal/wal"
	"aqua/internal/workload"

	"aqua/internal/app"
	"aqua/internal/apps"
)

// requireCleanReport fails the test with the full rendered report when any
// invariant verdict is violated.
func requireCleanReport(t *testing.T, name string, rep check.Report) {
	t.Helper()
	if !rep.OK() {
		var buf bytes.Buffer
		rep.Write(&buf)
		t.Fatalf("%s: invariant violations:\n%s", name, buf.Bytes())
	}
}

// recoveryVerdict returns the recovery-frontier verdict, asserting it sits
// at its pinned index (appended sixth; earlier indices are load-bearing for
// older tests).
func recoveryVerdict(t *testing.T, rep check.Report) check.Verdict {
	t.Helper()
	if len(rep.Verdicts) != 6 || rep.Verdicts[5].Invariant != "recovery-frontier" {
		t.Fatalf("verdict layout changed: %+v", rep.Verdicts)
	}
	return rep.Verdicts[5]
}

// TestRecoveryAdversarialSchedules is the durable-recovery acceptance
// suite: seven hand-placed crash schedules, each stressing a different
// corner of the WAL + replicated-ordering design, all run with durability
// and majority-floor GSN ordering armed. Every run must satisfy all six
// invariants, actually recover at least one replica from its own media,
// and finish with application state byte-identical to a never-faulted
// reference run of the same configuration.
func TestRecoveryAdversarialSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos runs in -short mode")
	}

	base := ChaosConfig{
		Seed:             424242,
		Durable:          true,
		SnapshotEvery:    8, // small threshold: every run crosses several compactions
		ReplicatedAssign: true,
	}

	// The references: identical config, empty schedule (non-nil, so no
	// faults are generated either). Same clients, same per-client keys, last
	// write wins: the converged application state depends only on the client
	// count, so one reference per count serves every schedule (the batching
	// and think-time variants change traffic, not final state).
	refs := make(map[int]ChaosResult)
	reference := func(t *testing.T, clients int) ChaosResult {
		t.Helper()
		if r, ok := refs[clients]; ok {
			return r
		}
		ref := base
		ref.Clients = clients
		ref.Schedule = chaos.Schedule{}
		r := RunChaosPoint(ref)
		requireCleanReport(t, "reference", r.Report)
		if !r.Done {
			t.Fatalf("reference run did not finish: %d requests", r.Requests)
		}
		refs[clients] = r
		return r
	}

	// The seventh schedule's injected tear, and what it left behind at the
	// victim's first restart (filled by the schedule's hooks).
	const tearAt = 160
	var tear struct {
		victim   *replica.Gateway
		media    *wal.MemMedia
		restarts int
		wedged   bool // the victim fail-stopped inside the torn append
		torn     bool // the media ends mid-frame
		prefix   int  // whole records of the torn run that reached the media
	}

	cases := []struct {
		name string
		// mutate tweaks the base config (batching knobs etc.).
		mutate func(*ChaosConfig)
		sched  chaos.Schedule
		// recovers lists replicas that must have replayed durable state.
		recovers []node.ID
		// verify, if set, runs after the common checks.
		verify func(t *testing.T)
	}{
		{
			// The sequencer batches assignments; the crash lands while a
			// window is open, so the victim's WAL ends mid-batch and replay
			// must resume exactly at the batch's released prefix.
			name: "crash-mid-batch",
			mutate: func(c *ChaosConfig) {
				c.AssignBatch = 32
				c.AssignBatchWindow = 15 * time.Millisecond
			},
			sched: chaos.Schedule{
				{At: 700 * time.Millisecond, Action: chaos.ActCrash, Target: "p01"},
				{At: 1400 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "p01"},
			},
			recovers: []node.ID{"p01"},
		},
		{
			// Dense traffic makes it near-certain the crash lands between a
			// commit's durable append and the client observing its ack: the
			// client retries into the recovered incarnation, whose replayed
			// dedup memo must suppress the duplicate instead of re-applying.
			name: "crash-between-append-and-ack",
			mutate: func(c *ChaosConfig) {
				c.Clients = 4
				c.RequestDelay = 10 * time.Millisecond
			},
			sched: chaos.Schedule{
				{At: 500 * time.Millisecond, Action: chaos.ActCrash, Target: "p02"},
				{At: 600 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "p02"},
			},
			recovers: []node.ID{"p02"},
		},
		{
			// The second crash lands 20ms after the recovering restart —
			// enough virtual time for Init's synchronous replay plus a few
			// fresh appends — so the final incarnation recovers from media
			// that a recovered incarnation already extended.
			name: "double-crash-during-replay",
			sched: chaos.Schedule{
				{At: 600 * time.Millisecond, Action: chaos.ActCrash, Target: "s01"},
				{At: 900 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "s01"},
				{At: 920 * time.Millisecond, Action: chaos.ActCrash, Target: "s01"},
				{At: 1300 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "s01"},
			},
			recovers: []node.ID{"s01"},
		},
		{
			// The kill lands on a lazy-interval boundary (LUI defaults to
			// 250ms), when secondaries are installing StateUpdate snapshots:
			// takeover, the snapshot installs' WAL cells, and the recovered
			// leader's re-join all overlap.
			name: "sequencer-kill-during-snapshot-install",
			sched: chaos.Schedule{
				{At: 1000 * time.Millisecond, Action: chaos.ActCrash, Target: "p00"},
				{At: 1750 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "p00"},
			},
			recovers: []node.ID{"p00"},
		},
		{
			// The replica recovers while still partitioned from the whole
			// service: replay must stand it at its durable frontier with no
			// peer reachable, and the post-heal catch-up must never pull
			// state below that frontier.
			name: "restart-into-active-partition",
			sched: chaos.Schedule{
				{At: 500 * time.Millisecond, Action: chaos.ActPartition, Name: "part00",
					SideA: []node.ID{"p00", "p01", "p02", "p03", "s00", "s01", "s04", "c00", "c01"},
					SideB: []node.ID{"s02", "s03"}},
				{At: 700 * time.Millisecond, Action: chaos.ActCrash, Target: "s02"},
				{At: 900 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "s02"},
				{At: 1600 * time.Millisecond, Action: chaos.ActHeal, Name: "part00"},
			},
			recovers: []node.ID{"s02"},
		},
		{
			// A follower crash-recovers first, then the sequencer dies: the
			// takeover's majority must count the recovered incarnation, and
			// the assignments it acked before its own crash must reach the
			// new leader through its durable GSNReport — the end-to-end path
			// for the durable-ack rule.
			name: "follower-recover-then-sequencer-kill",
			sched: chaos.Schedule{
				{At: 600 * time.Millisecond, Action: chaos.ActCrash, Target: "p02"},
				{At: 1000 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "p02"},
				{At: 1400 * time.Millisecond, Action: chaos.ActCrash, Target: "p00"},
				{At: 2200 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "p00"},
			},
			recovers: []node.ID{"p02", "p00"},
		},
		{
			// p02's disk tears a released run mid-frame: the append that
			// crosses byte 150 of its log lands as a whole-record prefix plus
			// a torn frame and fails, so p02 fail-stops inside it — the
			// simulator's form of dying mid-write — exposing none of the run.
			// The recovered incarnation must stand at exactly the prefix,
			// fold the unreadable tail away, and commit more; its own crash
			// must then lose none of that (an incarnation that appended
			// behind the torn bytes would recover below its own frontier, and
			// the recovery-frontier oracle would say so).
			name: "tear-inside-released-run",
			mutate: func(c *ChaosConfig) {
				// Dense traffic into a batching sequencer, so floors release
				// several commits at a time.
				c.Clients = 4
				c.RequestDelay = 10 * time.Millisecond
				c.AssignBatch = 32
				c.AssignBatchWindow = 15 * time.Millisecond
				// No compaction: a log reset would heal the media behind the
				// test's back. The log is the only durable copy of whatever
				// the recovered incarnation commits.
				c.SnapshotEvery = 100000
				c.Mutate = func(d *core.Deployment) {
					tear.victim, tear.media = d.Replicas["p02"], d.Media.Get("p02")
					tear.media.FailAfter(tearAt)
				}
				c.Wrap = func(id node.ID, n node.Node) node.Node {
					if id != "p02" || tear.victim == nil {
						return n // deploy: Mutate has not run yet
					}
					if tear.restarts++; tear.restarts > 1 {
						return n
					}
					// First restart: what did the tear leave behind?
					tear.media.FailAfter(-1) // the replacement gets a working disk
					tear.wedged = tear.victim.Wedged()
					rec, err := wal.NewStore(tear.media).Recover()
					tear.torn = err == nil && rec.Torn
					exposed := tear.victim.DurableStore()
					tear.prefix = int(rec.CSN - exposed.Frontier())
					return n
				}
			},
			verify: func(t *testing.T) {
				if !tear.wedged || !tear.torn || tear.prefix == 0 {
					t.Errorf("tear at log byte %d: victim wedged=%t, media torn=%t, whole records of the torn run on media=%d; "+
						"want a fail-stop on a mid-frame tear behind a whole-record prefix (re-pick tearAt if the traffic changed)",
						tearAt, tear.wedged, tear.torn, tear.prefix)
				}
			},
			sched: chaos.Schedule{
				{At: 700 * time.Millisecond, Action: chaos.ActCrash, Target: "p02"},
				{At: 900 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "p02"},
				{At: 1500 * time.Millisecond, Action: chaos.ActCrash, Target: "p02"},
				{At: 1800 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "p02"},
			},
			recovers: []node.ID{"p02"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Schedule = tc.sched
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			res := RunChaosPoint(cfg)
			if !res.Done {
				t.Fatalf("clients did not finish: %d requests, %d failed", res.Requests, res.Failed)
			}
			requireCleanReport(t, tc.name, res.Report)
			if v := recoveryVerdict(t, res.Report); v.Checked == 0 {
				t.Error("recovery-frontier oracle performed no checks")
			}
			for _, id := range tc.recovers {
				if res.Recovered[id] == 0 {
					t.Errorf("%s never recovered from its durable media", id)
				}
			}
			// The converged application state is schedule-independent: any
			// divergence from the never-faulted reference means recovery
			// lost, duplicated, or reordered a committed update.
			for id, want := range reference(t, cfg.Clients).AppStates {
				if got, ok := res.AppStates[id]; !ok || !bytes.Equal(got, want) {
					t.Errorf("%s final state diverged from the never-faulted reference", id)
				}
			}
			if tc.verify != nil {
				tc.verify(t)
			}
		})
	}
}

// TestRecoveryGeneratedSchedulePasses runs the random generator with
// recovery restarts swapped in for every restart: whatever crash placement
// it emits, all six invariants must hold and at least one replica must
// have actually replayed durable state.
func TestRecoveryGeneratedSchedulePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos runs in -short mode")
	}
	for _, seed := range []int64{19, 73} {
		cfg := ChaosConfig{
			Seed:             seed,
			Requests:         60,
			Durable:          true,
			SnapshotEvery:    8,
			ReplicatedAssign: true,
			Faults: chaos.GenConfig{
				Crashes: 3, Partitions: 1, LinkFaults: 2,
				SequencerKill: true, RecoverRestarts: true,
			},
		}
		res := RunChaosPoint(cfg)
		if len(res.Schedule) == 0 {
			t.Fatalf("seed %d: generator produced an empty schedule", seed)
		}
		requireCleanReport(t, fmt.Sprintf("seed %d", seed), res.Report)
		if len(res.Recovered) == 0 {
			t.Errorf("seed %d: no replica recovered durable state", seed)
		}
	}
}

// TestRecoveryChaosSweepParallelismInvariant mirrors the PR-5 determinism
// pin for the durable configuration: same seeds, same oracle traces and
// verdicts, whether the sweep runs sequentially or fanned across workers.
// Under -race in CI this also checks durability shares nothing across runs.
func TestRecoveryChaosSweepParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	base := ChaosConfig{
		Requests:         40,
		Durable:          true,
		SnapshotEvery:    8,
		ReplicatedAssign: true,
		Faults: chaos.GenConfig{
			Crashes: 2, Partitions: 1, LinkFaults: 2,
			SequencerKill: true, RecoverRestarts: true,
		},
	}
	seeds := []int64{4, 5, 6}

	render := func(results []ChaosResult) []byte {
		var buf bytes.Buffer
		WriteChaosTable(&buf, results)
		for i := range results {
			buf.Write(results[i].Trace)
		}
		return buf.Bytes()
	}

	defer SetParallelism(1)
	var want []byte
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		SetParallelism(par)
		got := render(RunChaosSweep(base, seeds))
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("parallelism %d changed recovery chaos traces or verdicts", par)
		}
	}
}

// cutLastRecords returns log without its last n whole records.
func cutLastRecords(t *testing.T, log []byte, n int) []byte {
	t.Helper()
	var ends []int
	for off := 0; off < len(log); {
		_, k, err := wal.DecodeRecord(log[off:])
		if err != nil {
			break
		}
		off += k
		ends = append(ends, off)
	}
	if len(ends) <= n {
		t.Fatalf("log holds %d records, cannot cut %d", len(ends), n)
	}
	return log[:ends[len(ends)-1-n]]
}

// TestRecoveryOracleCatchesDropTail proves the recovery-frontier oracle
// can actually fail: the last records of p01's log are cut from its media
// while it is down, so it recovers below its pre-crash frontier — exactly
// the durable-history loss the oracle exists to flag. The same run with its
// log left whole passes every oracle.
func TestRecoveryOracleCatchesDropTail(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run in -short mode")
	}
	cfg := ChaosConfig{
		Seed:    99,
		Durable: true,
		// No compaction before the crash: the whole history sits in the
		// log, so dropping its tail certainly loses applied commits.
		SnapshotEvery: 100000,
		Schedule: chaos.Schedule{
			{At: 2 * time.Second, Action: chaos.ActCrash, Target: "p01"},
			{At: 2500 * time.Millisecond, Action: chaos.ActRestartRecover, Target: "p01"},
		},
	}
	requireCleanReport(t, "with the log whole", RunChaosPoint(cfg).Report)

	var media *wal.Registry
	cfg.Mutate = func(d *core.Deployment) { media = d.Media }
	cfg.Wrap = func(id node.ID, n node.Node) node.Node {
		// Wrap also runs at deploy, before Mutate captured the media: only
		// the restart, ahead of the recovering incarnation's Init, cuts.
		if id == "p01" && media != nil {
			m := media.Get(id)
			m.SetLog(cutLastRecords(t, m.Log(), 3))
		}
		return n
	}
	res := RunChaosPoint(cfg)
	if res.Recovered["p01"] == 0 {
		t.Fatal("p01 never recovered — the planted bug was not exercised")
	}
	v := recoveryVerdict(t, res.Report)
	if v.OK() {
		var buf bytes.Buffer
		res.Report.Write(&buf)
		t.Fatalf("planted drop-tail bug was not caught by the recovery-frontier oracle:\n%s", buf.Bytes())
	}
}

// TestSeqKillOpenLoopZeroHoles is the replicated-ordering acceptance test:
// under open-loop load with majority-floor GSN ordering armed, killing the
// sequencer mid-run must leave no assignment holes — every replica's
// applied stream stays gap-free through the takeover, judged by the
// sequential-consistency oracle over the full trace.
func TestSeqKillOpenLoopZeroHoles(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop chaos run in -short mode")
	}
	s := sim.NewScheduler(31337)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
		Min: 200 * time.Microsecond,
		Max: time.Millisecond,
	}))
	rec := check.NewRecorder(sim.Epoch, s.Now)

	svc := core.ServiceConfig{
		Primaries:        3, // sequencer + 2 serving
		Secondaries:      2,
		LazyInterval:     100 * time.Millisecond,
		Group:            group.DefaultConfig(),
		NewApp:           func() app.Application { return apps.NewKVStore() },
		ReplicatedAssign: true,
		OnApply:          rec.Apply,
		OnServeRead:      rec.ServeRead,
		OnRestore:        rec.Restore,
	}
	d, err := core.Deploy(rt, svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := workload.NewEngine(workload.EngineConfig{
		Shards:       []client.ServiceInfo{d.Info},
		Arrivals:     workload.Poisson{Rate: 400},
		ReadFraction: 0.5,
		Deadline:     50 * time.Millisecond,
	})
	rt.Register("load", eng)
	rt.Start()

	// One second of steady load, then the kill; no restart — takeover
	// alone must close the ordering pipeline's open window.
	s.RunFor(time.Second)
	preKill := eng.Metrics().UpdatesDone
	rt.Crash(d.Sequencer)
	rec.Crash(d.Sequencer)
	s.RunFor(3 * time.Second)

	if m := eng.Metrics(); m.UpdatesDone <= preKill {
		t.Fatalf("no updates committed after the sequencer kill (before=%d after=%d)",
			preKill, m.UpdatesDone)
	}
	rep := check.Run(rec.Events())
	requireCleanReport(t, "seq-kill-open-loop", rep)
	seq := rep.Verdicts[0]
	if seq.Invariant != "sequential-consistency" || seq.Checked == 0 {
		t.Fatalf("sequential-consistency oracle did not run: %+v", seq)
	}
	var floors uint64
	for _, id := range d.PrimaryGroup {
		g := d.Replicas[id]
		if g.IsLeader() {
			floors += g.OrderCommits()
		}
	}
	if floors == 0 {
		t.Error("no OrderCommit floors were ever broadcast — replicated ordering never engaged")
	}
}

// TestFig4DurabilityByteIdentical pins the compatibility contract of the
// durable layer: with the WAL + snapshot store armed on every replica but
// no recovery faults injected, the Fig4 paper tables must be byte-for-byte
// identical to a run without durability. The in-memory media is synchronous
// — no scheduler events, no rand draws — so merely logging must not perturb
// virtual-time execution.
func TestFig4DurabilityByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 sweep in -short mode")
	}
	render := func(durable bool) []byte {
		var results []Fig4Result
		for _, deadline := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
			results = append(results, RunFig4Point(Fig4Config{
				Seed:          77,
				Deadline:      deadline,
				MinProb:       0.05,
				Requests:      60,
				RequestDelay:  100 * time.Millisecond,
				Durable:       durable,
				SnapshotEvery: 8,
			}))
		}
		var buf bytes.Buffer
		WriteFig4aTable(&buf, results)
		WriteFig4bTable(&buf, results)
		return buf.Bytes()
	}

	plain := render(false)
	durable := render(true)
	if !bytes.Equal(plain, durable) {
		t.Fatalf("durability perturbed the paper tables:\n--- plain ---\n%s\n--- durable ---\n%s",
			plain, durable)
	}
}
