package experiment

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"aqua/internal/chaos"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
)

// TestChaosAcceptance is the harness's headline scenario: nine replicas
// (sequencer + 3 serving primaries + 5 secondaries) survive a secondary
// crash/restart, a two-secondary partition with heal, and a sequencer
// kill forcing takeover and re-join — and the full run satisfies all five
// protocol invariants.
func TestChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run in -short mode")
	}
	cfg := ChaosConfig{
		Seed: 2002,
		Schedule: chaos.Schedule{
			{At: 300 * time.Millisecond, Action: chaos.ActCrash, Target: "s01"},
			{At: 800 * time.Millisecond, Action: chaos.ActRestart, Target: "s01"},
			{At: 1200 * time.Millisecond, Action: chaos.ActPartition, Name: "part00",
				SideA: []node.ID{"p00", "p01", "p02", "p03", "s00", "s01", "s04", "c00", "c01"},
				SideB: []node.ID{"s02", "s03"}},
			{At: 2 * time.Second, Action: chaos.ActHeal, Name: "part00"},
			{At: 2500 * time.Millisecond, Action: chaos.ActCrash, Target: "p00"},
			{At: 3100 * time.Millisecond, Action: chaos.ActRestart, Target: "p00"},
		},
	}
	res := RunChaosPoint(cfg)
	if !res.Done {
		t.Fatalf("clients did not finish: %d requests completed, %d failed", res.Requests, res.Failed)
	}
	if !res.Report.OK() {
		var buf bytes.Buffer
		res.Report.Write(&buf)
		t.Fatalf("invariant violations:\n%s", buf.Bytes())
	}
	// The run must actually exercise the oracles, not pass vacuously.
	for _, v := range res.Report.Verdicts {
		switch v.Invariant {
		case "sequential-consistency", "csn-monotonicity", "staleness-bound", "read-your-writes":
			if v.Checked == 0 {
				t.Errorf("invariant %s performed no checks", v.Invariant)
			}
		}
	}
	if res.Requests == 0 {
		t.Error("no client requests completed")
	}
}

// swapAdjacentAssigns plants an ordering bug in one replica from outside
// it: the first two consecutive update assignments the replica receives
// from the sequencer arrive with their GSNs exchanged, so it applies that
// pair in the opposite order to every other primary.
type swapAdjacentAssigns struct {
	node.Node
	moved uint64 // the GSN the first assignment was moved off; 0 before it
	done  bool
}

func (s *swapAdjacentAssigns) Recv(from node.ID, m node.Message) {
	if dm, ok := m.(group.DataMsg); ok && !s.done {
		// ab and dm are copies: simulator receivers share payloads, and the
		// other primaries must still see the sequencer's true assignment.
		if ab, ok := dm.Payload.(consistency.GSNAssignBatch); ok && len(ab.Updates) == 1 {
			switch {
			case s.moved == 0:
				s.moved = ab.First
				ab.First++
			case ab.First == s.moved+1:
				ab.First = s.moved
				s.done = true
			}
			dm.Payload = ab
			m = dm
		}
	}
	s.Node.Recv(from, m)
}

// TestChaosOracleCatchesReorderBug proves the sequential-consistency oracle
// has teeth: with one serving primary wrapped so that two adjacent update
// assignments reach it with their GSNs swapped, the oracle must report the
// order divergence — while the same run without the swap passes every
// oracle. A harness that cannot catch a planted bug proves nothing when it
// passes.
func TestChaosOracleCatchesReorderBug(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run in -short mode")
	}
	cfg := ChaosConfig{
		Seed:         7,
		Clients:      4,
		Requests:     80,
		RequestDelay: 20 * time.Millisecond,
	}
	requireCleanReport(t, "without the swap", RunChaosPoint(cfg).Report)

	cfg.Wrap = func(id node.ID, n node.Node) node.Node {
		if id == "p01" {
			return &swapAdjacentAssigns{Node: n}
		}
		return n
	}
	res := RunChaosPoint(cfg)
	seq := res.Report.Verdicts[0]
	if seq.Invariant != "sequential-consistency" {
		t.Fatalf("verdict order changed: got %q first", seq.Invariant)
	}
	if seq.OK() || !strings.Contains(strings.Join(seq.Violations, "\n"), "(order divergence)") {
		var buf bytes.Buffer
		res.Report.Write(&buf)
		t.Fatalf("swapped assignments were not reported as an order divergence (%d events, %d requests):\n%s",
			res.Events, res.Requests, buf.Bytes())
	}
}

// TestChaosSweepParallelismInvariant mirrors TestFig4SweepParallelismInvariant
// for chaos runs: the same seeds produce byte-identical oracle traces and
// rendered verdicts whether the sweep runs sequentially or fanned across
// workers. Under -race in CI this also checks the share-nothing claim.
func TestChaosSweepParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	base := ChaosConfig{
		Requests: 40,
		Faults:   chaos.GenConfig{Crashes: 2, Partitions: 1, LinkFaults: 2, SequencerKill: true},
	}
	seeds := []int64{1, 2, 3}

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
			t.Fatalf("parallelism %d changed chaos traces or verdicts", par)
		}
	}
}

// TestChaosGeneratedSchedulePasses runs the random generator end to end:
// whatever scenario it emits within its guard rails, the protocol must
// satisfy every invariant.
func TestChaosGeneratedSchedulePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run in -short mode")
	}
	for _, seed := range []int64{11, 42} {
		cfg := ChaosConfig{
			Seed:     seed,
			Requests: 60,
			Faults:   chaos.GenConfig{Crashes: 3, Partitions: 2, LinkFaults: 3, SequencerKill: true},
		}
		res := RunChaosPoint(cfg)
		if len(res.Schedule) == 0 {
			t.Fatalf("seed %d: generator produced an empty schedule", seed)
		}
		if !res.Report.OK() {
			var buf bytes.Buffer
			res.Report.Write(&buf)
			t.Errorf("seed %d: invariant violations under generated faults:\n%s", seed, buf.Bytes())
		}
	}
}
