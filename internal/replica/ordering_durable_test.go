package replica

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aqua/internal/apps"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/sim"
	"aqua/internal/wal"
)

// lossSwitch is a mutable LossModel: tests arm and disarm a partition
// between RunFor windows.
type lossSwitch struct{ m netsim.LossModel }

func (l *lossSwitch) Drop(r *rand.Rand, from, to node.ID) bool {
	return l.m != nil && l.m.Drop(r, from, to)
}

// durableTestbed is the replicated-assignment + WAL variant of testbed:
// every primary runs with ReplicatedAssign and a durable store whose media
// survives restarts (the registry outlives gateway incarnations), and every
// restore is recorded per node.
type durableTestbed struct {
	*testbed
	reg      *wal.Registry
	loss     *lossSwitch
	restores map[node.ID][]uint64
}

func newDurableTestbed(seed int64, lazy time.Duration) *durableTestbed {
	s := sim.NewScheduler(seed)
	loss := &lossSwitch{}
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.ConstantDelay(ms)), sim.WithLoss(loss))
	dtb := &durableTestbed{
		testbed:  &testbed{s: s, rt: rt, replicas: make(map[node.ID]*Gateway), cli: &probe{}},
		reg:      wal.NewRegistry(),
		loss:     loss,
		restores: make(map[node.ID][]uint64),
	}
	primGroup := []node.ID{"p0", "p1", "p2"}
	secs := []node.ID{"s1", "s2"}
	for _, id := range primGroup {
		g := New(dtb.config(id, true, lazy))
		dtb.replicas[id] = g
		rt.Register(id, g)
	}
	for _, id := range secs {
		g := New(dtb.config(id, false, lazy))
		dtb.replicas[id] = g
		rt.Register(id, g)
	}
	rt.Register("cli", dtb.cli)
	return dtb
}

func (dtb *durableTestbed) config(id node.ID, primary bool, lazy time.Duration) Config {
	cfg := Config{
		Primary:      primary,
		PrimaryGroup: []node.ID{"p0", "p1", "p2"},
		Secondaries:  []node.ID{"s1", "s2"},
		Clients:      []node.ID{"cli"},
		Group:        group.DefaultConfig(),
		LazyInterval: lazy,
		App:          apps.NewKVStore(),
		OnRestore: func(csn uint64) {
			dtb.restores[id] = append(dtb.restores[id], csn)
		},
	}
	if primary {
		cfg.Durable = wal.NewStore(dtb.reg.Get(id))
		cfg.ReplicatedAssign = true
	}
	return cfg
}

// restartRecover replaces a crashed primary with an incarnation that
// recovers from the same durable media.
func (dtb *durableTestbed) restartRecover(id node.ID, lazy time.Duration) *Gateway {
	g := New(dtb.config(id, true, lazy))
	dtb.replicas[id] = g
	dtb.rt.Restart(id, g)
	return g
}

// TestDurableAckedFrontierSurvivesRecovery is the high-severity regression:
// a follower that acknowledged assignment frontier F to the sequencer, then
// crash-recovered before the commits released, must still hold every
// assignment at or below F — in its commit buffer, in its GSNReport, and
// usable to commit at the original GSNs. Before the fix, assignments were
// WAL-logged only at release, so the recovered incarnation came back empty
// and the acked frontier was a broken promise.
func TestDurableAckedFrontierSurvivesRecovery(t *testing.T) {
	const lazy = 30 * time.Second
	dtb := newDurableTestbed(40, lazy)
	dtb.rt.Start()
	dtb.s.RunFor(200 * ms)

	// Feed p2 three bodies and their assignments directly, bypassing the
	// sequencer, so no majority floor ever rises: the commits stay staged
	// behind the release gate — exactly the acked-but-unreleased window.
	p2 := dtb.replicas["p2"]
	dtb.s.After(0, func() {
		for i := uint64(1); i <= 3; i++ {
			p2.onRequest("cli", req(i, false, "Set", fmt.Sprintf("k%d=%d", i, i), 0))
			p2.onAssign(consistency.GSNAssign{
				ID: consistency.RequestID{Client: "cli", Seq: i}, GSN: i, Update: true,
			})
		}
	})
	dtb.s.RunFor(300 * ms)

	if got := p2.commit.AssignFrontier(); got != 3 {
		t.Fatalf("pre-crash assignment frontier = %d, want 3", got)
	}
	if got := p2.CSN(); got != 0 {
		t.Fatalf("pre-crash CSN = %d, want 0 (no floor released)", got)
	}
	if got := p2.cfg.Durable.AssignFrontier(); got != 3 {
		t.Fatalf("pre-crash durable assign frontier = %d, want 3 (acks must be logged first)", got)
	}

	// Crash and recover from the same media.
	dtb.rt.Crash("p2")
	dtb.s.RunFor(100 * ms)
	p2r := dtb.restartRecover("p2", lazy)
	dtb.s.RunFor(300 * ms)

	if got := p2r.commit.AssignFrontier(); got != 3 {
		t.Fatalf("recovered assignment frontier = %d, want 3 (acked frontier lost in crash)", got)
	}
	r := p2r.buildGSNReport(7)
	if len(r.Assigns) != 3 {
		t.Fatalf("recovered GSNReport carries %d assigns, want 3: %+v", len(r.Assigns), r.Assigns)
	}

	// The recovered assignments commit at their original GSNs once the
	// bodies return and the floor releases them.
	dtb.s.After(0, func() {
		for i := uint64(1); i <= 3; i++ {
			p2r.onRequest("cli", req(i, false, "Set", fmt.Sprintf("k%d=%d", i, i), 0))
		}
		p2r.onOrderCommit(consistency.OrderCommit{Floor: 3})
	})
	dtb.s.RunFor(500 * ms)
	if got := p2r.Applied(); got != 3 {
		t.Fatalf("recovered replica applied %d, want 3", got)
	}
	if v, err := p2r.App().Read("Get", []byte("k2")); err != nil || string(v) != "2" {
		t.Fatalf("recovered replica k2 = %q (%v)", v, err)
	}
}

// TestTakeoverWaitsForMajorityReports is the finding-2 regression: a
// replicated-assign takeover must not finish below a majority of the full
// primary group. With every peer dead the new leader waits — re-querying as
// peers recover — instead of resuming with holes behind a released floor.
func TestTakeoverWaitsForMajorityReports(t *testing.T) {
	const lazy = 30 * time.Second
	dtb := newDurableTestbed(41, lazy)
	dtb.rt.Start()
	dtb.s.RunFor(200 * ms)

	for i := uint64(1); i <= 2; i++ {
		dtb.update(i, fmt.Sprintf("k%d=%d", i, i))
	}
	dtb.s.RunFor(time.Second)
	if got := dtb.replicas["p1"].Applied(); got != 2 {
		t.Fatalf("pre-fault p1 applied = %d, want 2", got)
	}

	// Kill a follower and the sequencer: p1 is the lone survivor of a
	// three-member group — below majority with self alone.
	dtb.rt.Crash("p2")
	dtb.rt.Crash("p0")
	dtb.s.RunFor(3 * time.Second)

	p1 := dtb.replicas["p1"]
	if !p1.IsLeader() {
		t.Fatal("p1 did not take leadership")
	}
	if p1.seqReady {
		t.Fatal("takeover finished without a majority of reports (quorum intersection voided)")
	}

	// p2 recovers with its durable state; its report completes the quorum.
	dtb.restartRecover("p2", lazy)
	dtb.s.RunFor(3 * time.Second)
	if !p1.seqReady {
		t.Fatal("takeover did not complete after a majority became reachable")
	}

	// Sequencing resumes: the two-member majority releases new commits.
	dtb.update(3, "k3=3")
	dtb.s.RunFor(2 * time.Second)
	if got := p1.Applied(); got != 3 {
		t.Fatalf("p1 applied %d after takeover, want 3", got)
	}
	if got := dtb.replicas["p2"].Applied(); got != 3 {
		t.Fatalf("recovered p2 applied %d, want 3", got)
	}
	if p1.OrderCommits() == 0 {
		t.Fatal("replicated ordering never engaged after takeover")
	}
}

// TestFloorRebroadcastAfterLostOrderCommit is the finding-3 regression: a
// follower whose OrderCommit was lost (and whose traffic then stopped) must
// still release its fully-assigned commits through the leader's periodic
// floor retransmission — via the commit stream, not the stuck-detection
// snapshot fallback.
func TestFloorRebroadcastAfterLostOrderCommit(t *testing.T) {
	const lazy = 30 * time.Second
	dtb := newDurableTestbed(42, lazy)
	dtb.rt.Start()
	dtb.s.RunFor(200 * ms)

	for i := uint64(1); i <= 2; i++ {
		dtb.update(i, fmt.Sprintf("k%d=%d", i, i))
	}
	dtb.s.RunFor(400 * ms)
	p2 := dtb.replicas["p2"]
	if got := p2.CSN(); got != 2 {
		t.Fatalf("pre-partition p2 CSN = %d, want 2", got)
	}

	// Isolate p2 from the sequencer (only): update 3's assignment and its
	// OrderCommit both die on the p0→p2 link, while p0+p1 form a majority
	// and release it. The window stays under the failure detector's
	// timeout, so no view change masks the loss.
	dtb.loss.m = netsim.NewPartition([]node.ID{"p0"}, []node.ID{"p2"})
	dtb.update(3, "k3=3")
	dtb.s.RunFor(600 * ms)
	if got := dtb.replicas["p1"].CSN(); got != 3 {
		t.Fatalf("majority did not release during partition: p1 CSN = %d", got)
	}
	if got := p2.CSN(); got != 2 {
		t.Fatalf("partitioned p2 CSN = %d, want 2", got)
	}
	dtb.loss.m = nil // heal

	// p2's chase recovers the assignment; the leader's floor rebroadcast
	// must then release it. Well before the stuck-detection snapshot path
	// (2×ChaseInterval of no progress) could paper over a missing
	// retransmission.
	dtb.s.RunFor(1500 * ms)
	if got := p2.CSN(); got != 3 {
		t.Fatalf("p2 CSN = %d after heal, want 3 (floor never retransmitted?)", got)
	}
	if got := p2.Applied(); got != 3 {
		t.Fatalf("p2 applied = %d, want 3", got)
	}
	for _, csn := range dtb.restores["p2"] {
		if csn > 0 {
			t.Fatalf("p2 converged via snapshot restore at %d, not the commit stream: floor rebroadcast missing", csn)
		}
	}
}

// TestWALFailureWedgesReplica is the finding-4 regression: a durable
// replica whose WAL append fails must fail stop — no further applies, no
// acks, no participation — rather than keep serving with a permanently
// stale durable frontier. The failure lands inside a two-commit run whose
// first record reaches the media whole: the run is one append, so a failed
// run exposes none of its jobs — not even the prefix the disk holds.
func TestWALFailureWedgesReplica(t *testing.T) {
	s := sim.NewScheduler(43)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.ConstantDelay(ms)))
	tb := &testbed{s: s, rt: rt, replicas: make(map[node.ID]*Gateway), cli: &probe{}}
	media := wal.NewMemMedia()
	mk := func(id node.ID) *Gateway {
		cfg := Config{
			Primary:      true,
			PrimaryGroup: []node.ID{"p0", "p1", "p2"},
			Secondaries:  nil,
			Clients:      []node.ID{"cli"},
			Group:        group.DefaultConfig(),
			LazyInterval: 30 * time.Second,
			App:          apps.NewKVStore(),
			// The sequencer batches same-window updates into one
			// GSNAssignBatch, so followers release them as one run.
			AssignBatch:       8,
			AssignBatchWindow: 5 * ms,
		}
		if id == "p2" {
			cfg.Durable = wal.NewStore(media)
		}
		g := New(cfg)
		tb.replicas[id] = g
		rt.Register(id, g)
		return g
	}
	for _, id := range []node.ID{"p0", "p1", "p2"} {
		mk(id)
	}
	rt.Register("cli", tb.cli)
	rt.Start()
	s.RunFor(200 * ms)

	for i := uint64(1); i <= 2; i++ {
		tb.update(i, fmt.Sprintf("k%d=%d", i, i))
	}
	s.RunFor(time.Second)
	p2 := tb.replicas["p2"]
	if got := p2.Applied(); got != 2 {
		t.Fatalf("pre-fault p2 applied = %d, want 2", got)
	}

	// The disk dies three bytes into the second record of the next run. The
	// release must wedge p2, not silently skip durability while still
	// acking — and not expose commit 3 on the strength of its whole record.
	r3 := wal.Record{GSN: 3, ID: consistency.RequestID{Client: "cli", Seq: 3}, Method: "Set", Payload: []byte("k3=3")}
	held := len(media.Log()) + len(wal.AppendRecord(nil, &r3))
	media.FailAfter(held + 3)
	tb.update(3, "k3=3")
	tb.update(4, "k4=4")
	s.RunFor(time.Second)

	if !p2.Wedged() {
		t.Fatal("WAL append failure did not wedge the replica")
	}
	if got := len(media.Log()); got != held+3 {
		t.Fatalf("media holds %d log bytes, want %d: the failure did not land inside a two-commit run", got, held+3)
	}
	if got := p2.Applied(); got != 2 || len(p2.queue) != 0 {
		t.Fatalf("wedged p2 applied = %d with %d queued jobs, want 2 and 0 (a failed run exposes none of its jobs)", got, len(p2.queue))
	}
	if got := p2.cfg.Durable.Frontier(); got != 2 {
		t.Fatalf("wedged p2 store frontier = %d, want 2 (a failed run moves nothing)", got)
	}
	if got := tb.replicas["p1"].Applied(); got != 4 {
		t.Fatalf("healthy p1 applied = %d, want 4", got)
	}

	// A wedged replica is silent: no replies to later requests.
	tb.update(5, "k5=5")
	s.RunFor(2 * time.Second)
	for _, r := range tb.cli.replies {
		if r.Replica == "p2" && r.ID.Seq >= 3 {
			t.Fatalf("wedged p2 replied to seq %d", r.ID.Seq)
		}
	}
	if got := tb.replicas["p1"].Applied(); got != 5 {
		t.Fatalf("group did not heal around the wedged replica: p1 applied %d, want 5", got)
	}
}

// TestRecoveredTornTailIsFolded is the torn-tail regression: recovery stops
// at a torn final record but the media cannot cut it, so an incarnation
// that kept appending behind those bytes would lose everything it logged —
// acknowledged commits included — at its own next crash. The recovering
// replica must fold its state into a fresh cell (which resets the log)
// before it logs anything.
func TestRecoveredTornTailIsFolded(t *testing.T) {
	const lazy = 30 * time.Second
	dtb := newDurableTestbed(44, lazy)
	dtb.rt.Start()
	dtb.s.RunFor(200 * ms)

	for i := uint64(1); i <= 2; i++ {
		dtb.update(i, fmt.Sprintf("k%d=%d", i, i))
	}
	dtb.s.RunFor(time.Second)
	if got := dtb.replicas["p2"].Applied(); got != 2 {
		t.Fatalf("pre-crash p2 applied = %d, want 2", got)
	}

	// p2 dies inside the append of its next run: the frame's first bytes
	// reach the media, the rest never does.
	dtb.rt.Crash("p2")
	m := dtb.reg.Get("p2")
	r3 := wal.Record{GSN: 3, ID: consistency.RequestID{Client: "cli", Seq: 3}, Method: "Set", Payload: []byte("k3=3")}
	frame := wal.AppendRecord(nil, &r3)
	m.SetLog(append(append([]byte(nil), m.Log()...), frame[:len(frame)-4]...))
	dtb.s.RunFor(100 * ms)

	p2 := dtb.restartRecover("p2", lazy)
	dtb.s.RunFor(300 * ms)
	if got := p2.Recovered(); got != 2 {
		t.Fatalf("first recovery at CSN %d, want 2", got)
	}
	if p2.Wedged() {
		t.Fatal("recovery fold wedged the replica")
	}

	// The recovered incarnation commits — and acknowledges — three more.
	for i := uint64(3); i <= 5; i++ {
		dtb.update(i, fmt.Sprintf("k%d=%d", i, i))
	}
	dtb.s.RunFor(time.Second)
	if got := p2.Applied(); got != 5 {
		t.Fatalf("recovered p2 applied = %d, want 5", got)
	}
	acked := 0
	for _, r := range dtb.cli.replies {
		if r.Replica == "p2" && r.ID.Seq >= 3 {
			acked++
		}
	}
	if acked != 3 {
		t.Fatalf("recovered p2 acknowledged %d of updates 3..5, want 3", acked)
	}

	// Its own crash must not lose them.
	dtb.rt.Crash("p2")
	dtb.s.RunFor(100 * ms)
	p2 = dtb.restartRecover("p2", lazy)
	dtb.s.RunFor(300 * ms)
	if got := p2.Recovered(); got != 5 {
		t.Fatalf("second recovery at CSN %d, want 5: commits logged behind the torn tail were lost", got)
	}
	if v, err := p2.App().Read("Get", []byte("k5")); err != nil || string(v) != "5" {
		t.Fatalf("twice-recovered p2 k5 = %q (%v)", v, err)
	}
}

// walTap watches one replica from both sides of the durability barrier: as
// its media it records how many records each log append carried, and as its
// node context it checks every AssignAck and Reply against the store's
// frontiers at the instant the message leaves. The store moves a frontier
// only once the covering media append has returned, so "frontier below the
// message" is exactly "sent before the append covering it returned".
type walTap struct {
	wal.Media
	node.Context
	store   *wal.Store
	appends []int // records per media append, in order
	acks    []uint64
	replies int
	early   []string
}

func (w *walTap) AppendLog(b []byte) error {
	n := 0
	if _, _, err := wal.Replay(b, func(wal.Record) error { n++; return nil }); err != nil {
		return err
	}
	w.appends = append(w.appends, n)
	return w.Media.AppendLog(b)
}

func (w *walTap) Send(to node.ID, m node.Message) {
	if dm, ok := m.(group.DataMsg); ok {
		switch p := dm.Payload.(type) {
		case consistency.AssignAck:
			w.acks = append(w.acks, p.Frontier)
			if df := w.store.AssignFrontier(); p.Frontier > df {
				w.early = append(w.early, fmt.Sprintf("AssignAck %d left at durable assign frontier %d", p.Frontier, df))
			}
		case consistency.Reply:
			w.replies++
			if df := w.store.Frontier(); p.CSN > df {
				w.early = append(w.early, fmt.Sprintf("Reply at CSN %d left at durable frontier %d", p.CSN, df))
			}
		}
	}
	w.Context.Send(to, m)
}

// tappedGateway hands the gateway the tap in place of its runtime context.
type tappedGateway struct {
	*Gateway
	tap *walTap
}

func (n tappedGateway) Init(ctx node.Context) {
	n.tap.Context = ctx
	n.Gateway.Init(n.tap)
}

// TestFollowerLogsEachRunOnce pins the group commit at a follower: a
// 64-update GSNAssignBatch is one media append (64 assign records) and one
// AssignAck; the OrderCommit covering it is one more (64 commit records);
// and neither the ack nor any of the 64 replies leaves before the append
// covering it returned.
func TestFollowerLogsEachRunOnce(t *testing.T) {
	const lazy = 30 * time.Second
	const n = 64
	dtb := newDurableTestbed(45, lazy)
	tap := &walTap{Media: dtb.reg.Get("p2")}
	cfg := dtb.config("p2", true, lazy)
	tap.store = wal.NewStore(tap)
	cfg.Durable = tap.store
	p2 := New(cfg)
	dtb.replicas["p2"] = p2
	dtb.rt.Start()
	dtb.rt.Crash("p2") // swap the untapped p2 for the tapped one
	dtb.rt.Restart("p2", tappedGateway{p2, tap})
	dtb.s.RunFor(200 * ms)

	// Bodies first, then the whole window's assignment, then its release —
	// fed to p2 directly so each arrives as exactly one message.
	ids := make([]consistency.RequestID, n)
	dtb.s.After(0, func() {
		for i := range ids {
			seq := uint64(i + 1)
			ids[i] = consistency.RequestID{Client: "cli", Seq: seq}
			p2.onRequest("cli", req(seq, false, "Set", fmt.Sprintf("k%d=%d", seq, seq), 0))
		}
	})
	dtb.s.RunFor(10 * ms)
	if len(tap.appends) != 0 {
		t.Fatalf("bodies alone reached the log: appends %v", tap.appends)
	}

	dtb.s.After(0, func() { p2.onAssignBatch(consistency.GSNAssignBatch{First: 1, Updates: ids}) })
	dtb.s.RunFor(10 * ms)
	if len(tap.appends) != 1 || tap.appends[0] != n {
		t.Fatalf("a %d-update GSNAssignBatch made media appends %v, want one of %d records", n, tap.appends, n)
	}
	if len(tap.acks) != 1 || tap.acks[0] != n {
		t.Fatalf("AssignAcks %v, want one at frontier %d", tap.acks, n)
	}

	dtb.s.After(0, func() { p2.onOrderCommit(consistency.OrderCommit{Floor: n}) })
	dtb.s.RunFor(time.Second)
	if len(tap.appends) != 2 || tap.appends[1] != n {
		t.Fatalf("the covering OrderCommit made media appends %v, want a second of %d records", tap.appends, n)
	}
	if got := p2.Applied(); got != n || tap.replies != n {
		t.Fatalf("p2 applied %d and replied %d times, want %d/%d", got, tap.replies, n, n)
	}
	if appends, _, _, syncs := tap.store.Stats(); appends != 2*n || syncs != 2 {
		t.Fatalf("store counted %d records over %d barriers, want %d over 2", appends, syncs, 2*n)
	}
	for _, e := range tap.early {
		t.Error(e)
	}
}
