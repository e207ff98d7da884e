package experiment

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// ledgerPath is the ledger of pinned chaos runs: one line per run of a
// chaos-table row, with its expected result.
var ledgerPath = filepath.Join("testdata", "chaos_ledger.txt")

// ledgerLine is one pinned run: a row crossed with fault kinds at a
// request count and seed, the ROADMAP item it tracks, and its expected
// result (see ledgerResult).
type ledgerLine struct {
	row, faults string
	requests    int
	seed        int64
	item        string
	result      string
}

// ledgerKey names a run: the same row, faults, requests and seed always
// produce the same result.
type ledgerKey struct {
	row, faults string
	requests    int
	seed        int64
}

func (l ledgerLine) key() ledgerKey { return ledgerKey{l.row, l.faults, l.requests, l.seed} }

var ledgerRE = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\d+)\s+(\d+)\s+(\S+)\s+(\S.*)$`)

// readLedger parses the ledger, skipping blank lines and # comments.
func readLedger(t *testing.T) []ledgerLine {
	t.Helper()
	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []ledgerLine
	seen := make(map[ledgerKey]bool)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		m := ledgerRE.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("%s:%d: want row faults requests seed item result, got %q", ledgerPath, n, text)
		}
		requests, _ := strconv.Atoi(m[3])
		seed, _ := strconv.ParseInt(m[4], 10, 64)
		l := ledgerLine{row: m[1], faults: m[2], requests: requests, seed: seed, item: m[5], result: m[6]}
		if seen[l.key()] {
			t.Fatalf("%s:%d: %v listed twice", ledgerPath, n, l.key())
		}
		seen[l.key()] = true
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// ledgerResult renders a run's outcome as the ledger records it: PASS, or
// the first violation of the first failing verdict (first failing shard
// first), exactly as check.Report.Write prints it.
func ledgerResult(r *ChaosResult) string {
	if r.OK() {
		return "PASS"
	}
	for s := range r.Reports {
		for _, v := range r.Reports[s].Verdicts {
			if !v.OK() && len(v.Violations) > 0 {
				return v.Violations[0]
			}
		}
	}
	return fmt.Sprintf("split %+v", *r.Split)
}

// TestChaosLedger reruns every pinned run in the ledger and requires the
// result it records, byte for byte. A known failure that changes shape, or
// a fixed seed that fails again, fails the build; a fix flips its line to
// PASS and the seed stays a regression pin.
func TestChaosLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs in -short mode")
	}
	lines := readLedger(t)
	points := make([]ChaosConfig, len(lines))
	for i, l := range lines {
		points[i] = chaosPreset(t, l.row).With(parseFaults(t, l.faults), l.requests)
		points[i].Seed = l.seed
	}
	for i, res := range RunPoints(points, 0, nil, RunChaosPoint) {
		l := lines[i]
		if got := ledgerResult(&res); got != l.result {
			t.Errorf("%s %s %d seed %d (item %s): got %q, ledger says %q",
				l.row, l.faults, l.requests, l.seed, l.item, got, l.result)
		}
	}
}

// sweptByName names the chaos-table rows that have a sweep test of their
// own; TestChaosPresetSweep covers every other row.
var sweptByName = map[string]bool{"plain": true, "durable": true, "batched": true}

// TestChaosGeneratedSchedulePasses sweeps the plain row: generated
// schedules of all four fault kinds against the bare protocol.
func TestChaosGeneratedSchedulePasses(t *testing.T) { sweepPreset(t, "plain") }

// TestRecoveryGeneratedSchedulePasses sweeps the durable row: generated
// restarts recover from WAL + snapshot, and every run recovers a replica.
func TestRecoveryGeneratedSchedulePasses(t *testing.T) { sweepPreset(t, "durable") }

// TestChaosBatchingGeneratedSweep sweeps the batched row: assignment
// batching with the read fast path armed, and every run serves fast reads.
func TestChaosBatchingGeneratedSweep(t *testing.T) { sweepPreset(t, "batched") }

// TestChaosPresetSweep sweeps every row of the chaos table that has no
// sweep test of its own (today the sharded row), so a new row is gated
// from the day it is added.
func TestChaosPresetSweep(t *testing.T) {
	for _, p := range ChaosPresets() {
		if !sweptByName[p.Name] {
			sweepPreset(t, p.Name)
		}
	}
}

// sweepPreset runs the named row of the chaos table over seeds 1–100 with
// all four fault kinds at 60 requests per client. A failing seed passes
// only if the ledger lists it with that exact result; any other failure is
// new and fails the build. Every run must also be non-vacuous for its row:
// a non-empty schedule, every client done, and the row's own claim
// exercised.
func sweepPreset(t *testing.T, row string) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	const requests = 60
	pinned := make(map[ledgerKey]string)
	for _, l := range readLedger(t) {
		pinned[l.key()] = l.result
	}
	defer SetParallelism(Parallelism())
	SetParallelism(0)
	p := chaosPreset(t, row)
	for _, res := range RunChaosSweep(p.With(parseFaults(t, allFaultKinds), requests), 1, 100) {
		name := fmt.Sprintf("%s seed %d", p.Name, res.Seed)
		want, ok := pinned[ledgerKey{p.Name, allFaultKinds, requests, res.Seed}]
		if !ok {
			want = "PASS"
		}
		if got := ledgerResult(&res); got != want {
			t.Errorf("%s: got %q, want %q (a new failure goes in %s)", name, got, want, ledgerPath)
		}
		if len(res.Schedule) == 0 {
			t.Errorf("%s: empty fault schedule", name)
		}
		if !res.Done {
			t.Errorf("%s: clients did not finish (%d completed, %d failed)", name, res.Requests, res.Failed)
		}
		switch p.Name {
		case "durable":
			if len(res.Recovered) == 0 {
				t.Errorf("%s: no replica recovered durable state", name)
			}
		case "batched":
			if res.FastServed == 0 {
				t.Errorf("%s: fast path armed but no read was served through it", name)
			}
		case "sharded":
			if res.OutageCompletions == 0 {
				t.Errorf("%s: no completions on other shards during shard 0's sequencer outage", name)
			}
			if s := res.Split; s == nil || s.Value != movedValue || s.Owner != moveTo {
				t.Errorf("%s: split = %+v, want %q read back from shard %d", name, s, movedValue, moveTo)
			}
		}
	}
}
