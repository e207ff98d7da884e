package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aqua/internal/chaos"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
)

// renderWindowOfOne runs the paper's configuration of the sequencer at
// seed 77 — the Fig4 tables at two deadlines, one sequencer-crash failover
// point (assignments recovered through the chase) and one lossy point
// (assignments recovered through retransmission) — and renders the tables.
func renderWindowOfOne(assignBatch int) []byte {
	base := Fig4Config{
		Seed:         77,
		MinProb:      0.05,
		Requests:     60,
		RequestDelay: 100 * time.Millisecond,
		AssignBatch:  assignBatch,
		// A window of one never waits, whatever the window bound.
		AssignBatchWindow: time.Millisecond,
	}
	var results []Fig4Result
	for _, deadline := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		cfg := base
		cfg.Deadline = deadline
		results = append(results, RunFig4Point(cfg))
	}
	base.Deadline = 200 * time.Millisecond
	failover, loss := failoverStudy("sequencer"), lossStudy(0.05)

	var buf bytes.Buffer
	WriteFig4aTable(&buf, results)
	WriteFig4bTable(&buf, results)
	WriteStudyTable(&buf, failover, RunStudy(failover, base))
	WriteStudyTable(&buf, loss, RunStudy(loss, base))
	return buf.Bytes()
}

// TestFig4BatchKnobByteIdentical pins the paper's per-request protocol as a
// parameter of the one assignment path: with AssignBatch 0 and 1 (both a
// window of one) the renders must match, byte for byte, the golden file
// recorded while the per-request broadcast was still a separate code path.
// Any divergence means the window perturbs the paper's results.
func TestFig4BatchKnobByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 sweep in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "window_of_one.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, assignBatch := range []int{0, 1} {
		if got := renderWindowOfOne(assignBatch); !bytes.Equal(got, want) {
			t.Fatalf("AssignBatch=%d diverged from the per-request protocol:\n--- golden ---\n%s\n--- got ---\n%s",
				assignBatch, want, got)
		}
	}
}

// chaseTap stands between a replica and its runtime, noting the update
// chases (GSNRequests) it receives and how long each chased request waited
// there before its assignment left.
type chaseTap struct {
	node.Node
	node.Context
	chases *chaseCount
	since  map[consistency.RequestID]time.Time // chase arrival, until answered
}

// chaseCount totals a run's update chases over every replica incarnation.
type chaseCount struct {
	received int           // update chases reaching any replica
	answered int           // chased requests the receiving replica then assigned
	maxWait  time.Duration // longest chase-to-assignment wait among them
}

func (c *chaseTap) Init(ctx node.Context) {
	c.Context = ctx
	c.Node.Init(c)
}

func (c *chaseTap) Recv(from node.ID, m node.Message) {
	if dm, ok := m.(group.DataMsg); ok {
		if r, ok := dm.Payload.(consistency.GSNRequest); ok && r.Update {
			c.chases.received++
			if _, waiting := c.since[r.ID]; !waiting {
				c.since[r.ID] = c.Now()
			}
		}
	}
	c.Node.Recv(from, m)
}

func (c *chaseTap) Send(to node.ID, m node.Message) {
	if dm, ok := m.(group.DataMsg); ok && len(c.since) > 0 {
		switch a := dm.Payload.(type) {
		case consistency.GSNAssignBatch:
			for _, id := range a.Updates {
				c.answer(id)
			}
		case consistency.GSNAssign:
			if a.Update {
				c.answer(a.ID)
			}
		}
	}
	c.Context.Send(to, m)
}

func (c *chaseTap) answer(id consistency.RequestID) {
	at, ok := c.since[id]
	if !ok {
		return
	}
	delete(c.since, id)
	c.chases.answered++
	c.chases.maxWait = max(c.chases.maxWait, c.Now().Sub(at))
}

// TestChaosBatchingFastPathAcceptance runs the full oracle suite with
// batched GSN assignment and the frontier-read fast path armed, under a
// schedule that kills the sequencer while traffic keeps its assign batches
// populated — so the kill lands mid-batch and takeover must not lose or
// reorder the buffered window. A slow link to p02 afterwards makes it chase
// assignments it has not received; with AssignBatch > 1 each update chase
// joins the sequencer's window and waits for its flush, and the run must
// show chases answered that way.
func TestChaosBatchingFastPathAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run in -short mode")
	}
	cfg := ChaosConfig{
		Seed:         2025,
		Clients:      4,
		Requests:     80,
		RequestDelay: 10 * time.Millisecond,
		ServiceMean:  -1, // no service delay: arms the fast path
		AssignBatch:  64,
		// A window much longer than the inter-arrival gap keeps a partially
		// filled batch pending at the sequencer almost continuously, so the
		// 400ms kill lands mid-batch rather than between flushes.
		AssignBatchWindow: 20 * time.Millisecond,
		Schedule: chaos.Schedule{
			{At: 400 * time.Millisecond, Action: chaos.ActCrash, Target: "p00"},
			{At: 900 * time.Millisecond, Action: chaos.ActRestart, Target: "p00"},
			// Assignments from either possible sequencer reach p02 long
			// after the bodies do, so its chase tick fires on them.
			{At: 1000 * time.Millisecond, Action: chaos.ActLink, From: "p00", To: "p02",
				Fault: chaos.LinkFault{ExtraDelay: 1200 * time.Millisecond}},
			{At: 1000 * time.Millisecond, Action: chaos.ActLink, From: "p01", To: "p02",
				Fault: chaos.LinkFault{ExtraDelay: 1200 * time.Millisecond}},
			{At: 1400 * time.Millisecond, Action: chaos.ActPartition, Name: "part00",
				SideA: []node.ID{"p00", "p01", "p02", "p03", "s00", "s01", "s04", "c00", "c01", "c02", "c03"},
				SideB: []node.ID{"s02", "s03"}},
			{At: 1700 * time.Millisecond, Action: chaos.ActLinkClear, From: "p00", To: "p02"},
			{At: 1700 * time.Millisecond, Action: chaos.ActLinkClear, From: "p01", To: "p02"},
			{At: 2 * time.Second, Action: chaos.ActHeal, Name: "part00"},
		},
	}
	var chases chaseCount
	cfg.Wrap = func(_ node.ID, n node.Node) node.Node {
		return &chaseTap{Node: n, chases: &chases, since: make(map[consistency.RequestID]time.Time)}
	}
	res := RunChaosPoint(cfg)
	t.Logf("update chases: %+v", chases)
	if chases.answered == 0 || chases.maxWait <= 0 {
		t.Errorf("update chases %+v: want a chased update answered after waiting in the window", chases)
	}
	if !res.Done {
		t.Fatalf("clients did not finish: %d requests completed, %d failed", res.Requests, res.Failed)
	}
	requireCleanReport(t, "batching + fast path", res.Reports[0])
	for _, v := range res.Reports[0].Verdicts {
		switch v.Invariant {
		case "sequential-consistency", "csn-monotonicity", "staleness-bound", "read-your-writes":
			if v.Checked == 0 {
				t.Errorf("invariant %s performed no checks", v.Invariant)
			}
		}
	}
	if res.FastServed == 0 {
		t.Error("fast path armed but no read was served through it")
	}
}
