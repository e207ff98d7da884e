package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
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
	res := RunChaosPoint(chaosAcceptanceConfig())
	if !res.Done {
		t.Fatalf("clients did not finish: %d requests completed, %d failed", res.Requests, res.Failed)
	}
	requireCleanReport(t, "acceptance", res.Reports[0])
	// The run must actually exercise the oracles, not pass vacuously.
	for _, v := range res.Reports[0].Verdicts {
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

// chaosAcceptanceConfig is TestChaosAcceptance's scenario.
func chaosAcceptanceConfig() ChaosConfig {
	return ChaosConfig{
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
	requireCleanReport(t, "without the swap", RunChaosPoint(cfg).Reports[0])

	cfg.Wrap = func(id node.ID, n node.Node) node.Node {
		if id == "p01" {
			return &swapAdjacentAssigns{Node: n}
		}
		return n
	}
	res := RunChaosPoint(cfg)
	seq := res.Reports[0].Verdicts[0]
	if seq.Invariant != "sequential-consistency" {
		t.Fatalf("verdict order changed: got %q first", seq.Invariant)
	}
	if seq.OK() || !strings.Contains(strings.Join(seq.Violations, "\n"), "(order divergence)") {
		var buf bytes.Buffer
		res.Reports[0].Write(&buf)
		t.Fatalf("swapped assignments were not reported as an order divergence (%d events, %d requests):\n%s",
			res.Events, res.Requests, buf.Bytes())
	}
}

// TestChaosSweepParallelismInvariant mirrors TestFig4SweepParallelismInvariant
// for chaos runs, over every row of the chaos table but the durable one
// (TestRecoveryChaosSweepParallelismInvariant) with all four fault kinds:
// the same seeds produce byte-identical oracle traces and rendered
// verdicts whether the sweep runs sequentially or fanned across workers.
// Under -race in CI this also checks the share-nothing claim, shards
// included.
func TestChaosSweepParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	for _, p := range ChaosPresets() {
		if p.Name != "durable" {
			requireSweepDeterministic(t, p.Name, p.With(parseFaults(t, allFaultKinds), 40), 1, 3)
		}
	}
}

// TestRecoveryChaosSweepParallelismInvariant is the same check for the
// durable row: WAL, snapshot and recovery restarts share nothing across
// workers.
func TestRecoveryChaosSweepParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	requireSweepDeterministic(t, "durable", chaosPreset(t, "durable").With(parseFaults(t, allFaultKinds), 40), 1, 3)
}

// allFaultKinds names all four fault kinds.
const allFaultKinds = "crash,partition,link,seqkill"

func parseFaults(t *testing.T, spec string) chaos.GenConfig {
	t.Helper()
	faults, err := chaos.ParseFaults(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faults
}

// chaosPreset returns the named row of the chaos table.
func chaosPreset(t *testing.T, name string) ChaosPreset {
	t.Helper()
	for _, p := range ChaosPresets() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no chaos preset %q", name)
	return ChaosPreset{}
}

// requireSweepDeterministic runs base over seeds seed..seed+runs-1 at
// parallelism 1, 2 and GOMAXPROCS and fails unless every level renders the
// same verdicts and oracle traces, byte for byte.
func requireSweepDeterministic(t *testing.T, name string, base ChaosConfig, seed int64, runs int) {
	t.Helper()
	render := func(results []ChaosResult) []byte {
		var buf bytes.Buffer
		WriteChaosTable(&buf, name, results)
		for i := range results {
			buf.Write(bytes.Join(results[i].Traces, nil))
		}
		return buf.Bytes()
	}

	defer SetParallelism(1)
	var want []byte
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		SetParallelism(par)
		got := render(RunChaosSweep(base, seed, runs))
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: parallelism %d changed chaos traces or verdicts", name, par)
		}
	}
}

// TestChaosGolden pins the harness byte for byte: each run's WriteChaosTable
// line and the SHA-256 of its oracle trace must match testdata/chaos.golden,
// recorded while unsharded runs still deployed through core.Deploy with
// bare client gateways. Every client now goes through a one-shard
// shard.Router, so this also holds the router's transparent-shim claim; and
// the generated runs are rows of the chaos table, so it holds each row to
// the hand-built config it replaced.
func TestChaosGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chaos.golden"))
	if err != nil {
		t.Fatal(err)
	}
	row := func(name, faults string, seed int64) ChaosConfig {
		cfg := chaosPreset(t, name).With(parseFaults(t, faults), 60)
		cfg.Seed = seed
		return cfg
	}
	cases := []struct {
		name string
		cfg  ChaosConfig
	}{
		{"acceptance", chaosAcceptanceConfig()},
		{"generated", row("plain", allFaultKinds, 1)},
		{"generated", row("plain", allFaultKinds, 42)},
		{"four-clients", ChaosConfig{Seed: 7, Clients: 4, Requests: 80, RequestDelay: 20 * time.Millisecond}},
		{"durable", row("durable", "crash,seqkill", 5)},
		{"batched-fast", row("batched", allFaultKinds, 9)},
	}
	var got bytes.Buffer
	for _, c := range cases {
		res := RunChaosPoint(c.cfg)
		var table bytes.Buffer
		WriteChaosTable(&table, c.name, []ChaosResult{res})
		_, line, _ := bytes.Cut(table.Bytes(), []byte("\n"))
		fmt.Fprintf(&got, "## %s\n%strace sha256:%x\n", c.name, line, sha256.Sum256(bytes.Join(res.Traces, nil)))
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("chaos runs diverged from the golden:\n--- golden ---\n%s\n--- got ---\n%s", want, got.Bytes())
	}
}

// TestShardChaosAcceptance is the sharded fault-tolerance headline, the
// sharded row of the chaos table: with shard 0's sequencer killed and
// restarted mid-run and a live shard split re-homing a key during the
// outage, every shard's protocol invariants must hold independently, shard
// 1's clients must keep completing requests while shard 0 recovers, and the
// moved key must preserve read-your-writes at its new owner.
func TestShardChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full shard chaos run in -short mode")
	}
	cfg := chaosPreset(t, "sharded").Config
	cfg.Seed = 2026
	res := RunChaosPoint(cfg)
	if !res.Done {
		t.Fatalf("pinned clients did not finish: %d requests completed, %d failed", res.Requests, res.Failed)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("got %d shard reports, want 2", len(res.Reports))
	}
	for i, rep := range res.Reports {
		requireCleanReport(t, fmt.Sprintf("shard %d", i), rep)
		// Per-shard verdicts must not pass vacuously.
		for _, v := range rep.Verdicts {
			switch v.Invariant {
			case "sequential-consistency", "csn-monotonicity", "read-your-writes":
				if v.Checked == 0 {
					t.Errorf("shard %d: invariant %s performed no checks", i, v.Invariant)
				}
			}
		}
		if len(res.Traces[i]) == 0 {
			t.Errorf("shard %d produced an empty oracle trace", i)
		}
	}
	// The kill must stay contained: shard 1's clients complete requests
	// while shard 0's sequencer is down.
	if res.OutageCompletions == 0 {
		t.Error("no completions on other shards during shard 0's sequencer outage")
	}
	// The live split rode out the failover and kept read-your-writes.
	if s := res.Split; s == nil || !s.Installed || s.Value != "moved" || s.Owner != 1 {
		t.Fatalf("split = %+v, want installed with the pre-move write read back from the new owner 1", s)
	}
	if !res.OK() {
		t.Fatal("OK() = false for a clean sharded run")
	}
}
