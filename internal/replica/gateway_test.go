package replica

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/sim"
)

const ms = time.Millisecond

// probe is a scripted client-side endpoint with its own substrate stack.
type probe struct {
	stack   *group.Stack
	ctx     node.Context
	replies []consistency.Reply
	perfs   []consistency.PerfBroadcast
	other   []node.Message
	onInit  func(p *probe)
}

func (p *probe) Init(ctx node.Context) {
	p.ctx = ctx
	cfg := group.DefaultConfig()
	cfg.HeartbeatInterval = 0
	p.stack = group.NewStack(ctx, cfg, func(from node.ID, m node.Message) {
		switch msg := m.(type) {
		case consistency.Reply:
			p.replies = append(p.replies, msg)
		case consistency.PerfBroadcast:
			p.perfs = append(p.perfs, msg)
		default:
			p.other = append(p.other, m)
		}
	})
	if p.onInit != nil {
		p.onInit(p)
	}
}

func (p *probe) Recv(from node.ID, m node.Message) { p.stack.Handle(from, m) }

func (p *probe) send(to node.ID, m node.Message) { p.stack.Send(to, m) }

// testbed builds sequencer p0 + primaries p1,p2 + secondaries s1,s2 and one
// probe client "cli".
type testbed struct {
	s        *sim.Scheduler
	rt       *sim.Runtime
	replicas map[node.ID]*Gateway
	cli      *probe
}

func newTestbed(seed int64, lazy time.Duration, delay DelayModel) *testbed {
	s := sim.NewScheduler(seed)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.ConstantDelay(ms)))
	tb := &testbed{s: s, rt: rt, replicas: make(map[node.ID]*Gateway), cli: &probe{}}

	primGroup := []node.ID{"p0", "p1", "p2"}
	secs := []node.ID{"s1", "s2"}
	mk := func(primary bool) *Gateway {
		return New(Config{
			Primary:      primary,
			PrimaryGroup: primGroup,
			Secondaries:  secs,
			Clients:      []node.ID{"cli"},
			Group:        group.DefaultConfig(),
			LazyInterval: lazy,
			ServiceDelay: delay,
			App:          apps.NewKVStore(),
		})
	}
	for _, id := range primGroup {
		g := mk(true)
		tb.replicas[id] = g
		rt.Register(id, g)
	}
	for _, id := range secs {
		g := mk(false)
		tb.replicas[id] = g
		rt.Register(id, g)
	}
	rt.Register("cli", tb.cli)
	return tb
}

func req(seq uint64, readOnly bool, method, payload string, staleness int) consistency.Request {
	return consistency.Request{
		ID:        consistency.RequestID{Client: "cli", Seq: seq},
		Method:    method,
		Payload:   []byte(payload),
		ReadOnly:  readOnly,
		Staleness: staleness,
	}
}

// update multicasts an update to the primary group, as a client would.
func (tb *testbed) update(seq uint64, payload string) {
	for _, id := range []node.ID{"p0", "p1", "p2"} {
		tb.cli.send(id, req(seq, false, "Set", payload, 0))
	}
}

// read sends a read to the given replicas plus the sequencer.
func (tb *testbed) read(seq uint64, staleness int, to ...node.ID) {
	r := req(seq, true, "Get", "k", staleness)
	for _, id := range to {
		tb.cli.send(id, r)
	}
	tb.cli.send("p0", r)
}

func TestReplicaRolesAfterInit(t *testing.T) {
	tb := newTestbed(1, time.Second, nil)
	tb.rt.Start()
	tb.s.RunFor(100 * ms)
	if !tb.replicas["p0"].IsLeader() || tb.replicas["p1"].IsLeader() {
		t.Fatal("leader assignment wrong")
	}
	if !tb.replicas["p1"].IsPublisher() || tb.replicas["p0"].IsPublisher() || tb.replicas["p2"].IsPublisher() {
		t.Fatal("publisher designation wrong")
	}
	for id, g := range tb.replicas {
		if g.Sequencer() != "p0" {
			t.Fatalf("%s believes sequencer is %s", id, g.Sequencer())
		}
	}
}

func TestReplicaUpdateRepliesFromServingPrimariesOnly(t *testing.T) {
	tb := newTestbed(2, time.Second, nil)
	tb.rt.Start()
	tb.cli.onInit = nil
	tb.s.RunFor(50 * ms)
	tb.update(1, "k=v")
	tb.s.RunFor(500 * ms)

	if len(tb.cli.replies) != 2 {
		t.Fatalf("replies = %d, want 2 (p1, p2; sequencer silent)", len(tb.cli.replies))
	}
	for _, r := range tb.cli.replies {
		if r.Replica == "p0" {
			t.Fatal("sequencer replied to an update")
		}
		if string(r.Payload) != "v1" || r.CSN != 1 {
			t.Fatalf("reply = %+v", r)
		}
	}
	// The sequencer still committed silently.
	if tb.replicas["p0"].Applied() != 1 {
		t.Fatal("sequencer did not track the commit")
	}
}

func TestReplicaT1IncludesQueueingDelay(t *testing.T) {
	// Fixed 50ms service time; two updates back-to-back: the second queues
	// behind the first, so its T1 ≈ 100ms (50 queue + 50 service) while the
	// first's ≈ 50ms.
	tb := newTestbed(3, time.Second, func(*rand.Rand) time.Duration { return 50 * ms })
	tb.rt.Start()
	tb.s.RunFor(50 * ms)
	tb.update(1, "a=1")
	tb.update(2, "b=2")
	tb.s.RunFor(2 * time.Second)

	var first, second consistency.Reply
	for _, r := range tb.cli.replies {
		if r.Replica != "p1" {
			continue
		}
		switch r.ID.Seq {
		case 1:
			first = r
		case 2:
			second = r
		}
	}
	if first.ID.Seq != 1 || second.ID.Seq != 2 {
		t.Fatalf("missing replies from p1: %+v", tb.cli.replies)
	}
	if first.T1 < 45*ms || first.T1 > 70*ms {
		t.Fatalf("first T1 = %v, want ≈50ms", first.T1)
	}
	if second.T1 < 90*ms || second.T1 > 130*ms {
		t.Fatalf("second T1 = %v, want ≈100ms (queueing included)", second.T1)
	}
}

func TestReplicaReadPerfBroadcastFields(t *testing.T) {
	tb := newTestbed(4, time.Second, func(*rand.Rand) time.Duration { return 20 * ms })
	tb.rt.Start()
	tb.s.RunFor(50 * ms)
	tb.read(1, 5, "p2")
	tb.s.RunFor(time.Second)

	if len(tb.cli.perfs) != 1 {
		t.Fatalf("perf broadcasts = %d, want 1", len(tb.cli.perfs))
	}
	pb := tb.cli.perfs[0]
	if pb.Replica != "p2" || !pb.Primary || pb.Deferred {
		t.Fatalf("broadcast = %+v", pb)
	}
	if pb.TS < 15*ms || pb.TS > 25*ms {
		t.Fatalf("TS = %v, want ≈20ms", pb.TS)
	}
	if pb.Sequencer != "p0" {
		t.Fatalf("Sequencer = %s", pb.Sequencer)
	}
	if pb.IsPublisher {
		t.Fatal("p2 is not the publisher; broadcast must not carry publisher extras")
	}
}

func TestReplicaPublisherBroadcastCarriesRates(t *testing.T) {
	tb := newTestbed(5, 10*time.Second, nil)
	tb.rt.Start()
	tb.s.RunFor(50 * ms)
	// p1 is the publisher. Commit 3 updates, then read from p1.
	tb.update(1, "a=1")
	tb.update(2, "b=2")
	tb.update(3, "c=3")
	tb.s.RunFor(500 * ms)
	tb.read(4, 5, "p1")
	tb.s.RunFor(500 * ms)

	var pub *consistency.PerfBroadcast
	for i := range tb.cli.perfs {
		if tb.cli.perfs[i].IsPublisher {
			pub = &tb.cli.perfs[i]
		}
	}
	if pub == nil {
		t.Fatal("no publisher broadcast")
	}
	if pub.NU != 3 || pub.NL != 3 {
		t.Fatalf("NU/NL = %d/%d, want 3/3", pub.NU, pub.NL)
	}
	if pub.TU <= 0 || pub.TL <= 0 {
		t.Fatalf("TU/TL = %v/%v", pub.TU, pub.TL)
	}
}

func TestReplicaDeferredReadMeasuresTB(t *testing.T) {
	const lazy = 400 * ms
	tb := newTestbed(6, lazy, nil)
	tb.rt.Start()
	tb.s.RunFor(50 * ms)
	tb.update(1, "a=1")
	tb.s.RunFor(100 * ms)
	tb.read(2, 0, "s1") // staleness 0 at a stale secondary → defer
	tb.s.RunFor(2 * time.Second)

	var reply *consistency.Reply
	for i := range tb.cli.replies {
		if tb.cli.replies[i].Replica == "s1" && tb.cli.replies[i].ID.Seq == 2 {
			reply = &tb.cli.replies[i]
		}
	}
	if reply == nil {
		t.Fatal("no reply from deferred secondary")
	}
	if reply.T1 < 100*ms {
		t.Fatalf("T1 = %v, want ≥100ms of defer wait", reply.T1)
	}
	var pb *consistency.PerfBroadcast
	for i := range tb.cli.perfs {
		if tb.cli.perfs[i].Replica == "s1" {
			pb = &tb.cli.perfs[i]
		}
	}
	if pb == nil || !pb.Deferred || pb.TB < 100*ms {
		t.Fatalf("deferred broadcast = %+v", pb)
	}
}

func TestReplicaSecondaryIgnoresDirectUpdates(t *testing.T) {
	tb := newTestbed(7, time.Second, nil)
	tb.rt.Start()
	tb.s.RunFor(50 * ms)
	tb.cli.send("s1", req(1, false, "Set", "a=1", 0))
	tb.s.RunFor(500 * ms)
	if got := tb.replicas["s1"].Applied(); got != 0 {
		t.Fatalf("secondary applied %d from a direct update", got)
	}
	if len(tb.cli.replies) != 0 {
		t.Fatal("secondary replied to an update")
	}
}

func TestReplicaChaseRecoversLostAssignment(t *testing.T) {
	// Simulate a lost GSN broadcast: send a read directly to p1 only —
	// never to the sequencer — so no GSNAssign ever arrives. The chase
	// must ask the sequencer and complete the read.
	tb := newTestbed(8, time.Second, nil)
	tb.rt.Start()
	tb.s.RunFor(50 * ms)
	tb.cli.send("p1", req(1, true, "Get", "k", 5))
	tb.s.RunFor(3 * time.Second) // > ChaseInterval

	found := false
	for _, r := range tb.cli.replies {
		if r.ID.Seq == 1 && r.Replica == "p1" {
			found = true
		}
	}
	if !found {
		t.Fatal("read without sequencer contact was never chased to completion")
	}
}

func TestReplicaStateUpdateDrainsOnlySatisfiedReads(t *testing.T) {
	tb := newTestbed(9, 50*time.Second, nil) // lazy effectively manual
	tb.rt.Start()
	tb.s.RunFor(50 * ms)
	tb.update(1, "a=1")
	tb.s.RunFor(200 * ms)
	tb.read(2, 0, "s1") // defers: s1 at CSN 0, GSN 1
	tb.s.RunFor(200 * ms)

	// Manually inject a state update that covers GSN 1.
	snap, _ := tb.replicas["p1"].App().Snapshot()
	tb.cli.send("s1", consistency.StateUpdate{CSN: 1, Snapshot: snap})
	tb.s.RunFor(500 * ms)

	if len(tb.cli.replies) == 0 {
		t.Fatal("deferred read not released by state update")
	}
	last := tb.cli.replies[len(tb.cli.replies)-1]
	if last.Replica != "s1" || last.CSN != 1 {
		t.Fatalf("reply = %+v", last)
	}
}

func TestReplicaStaleStateUpdateIgnored(t *testing.T) {
	tb := newTestbed(10, 100*ms, nil)
	tb.rt.Start()
	tb.s.RunFor(50 * ms)
	for i := uint64(1); i <= 3; i++ {
		tb.update(i, fmt.Sprintf("k%d=%d", i, i))
	}
	tb.s.RunFor(time.Second) // several lazy rounds: s1 at CSN 3
	if tb.replicas["s1"].CSN() != 3 {
		t.Fatalf("s1 CSN = %d, want 3", tb.replicas["s1"].CSN())
	}
	// A duplicate old state update must not regress anything.
	tb.cli.send("s1", consistency.StateUpdate{CSN: 1, Snapshot: []byte("garbage")})
	tb.s.RunFor(200 * ms)
	if tb.replicas["s1"].CSN() != 3 {
		t.Fatal("stale state update regressed CSN")
	}
}

func TestReplicaNewPanicsOnBadConfig(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nil app", func() {
		New(Config{PrimaryGroup: []node.ID{"a", "b"}})
	})
	mustPanic("tiny primary group", func() {
		New(Config{PrimaryGroup: []node.ID{"a"}, App: apps.NewKVStore()})
	})
}

// snapCounter counts the Snapshot calls made on an application.
type snapCounter struct {
	app.Application
	n int
}

func (a *snapCounter) Snapshot() ([]byte, error) {
	a.n++
	return a.Application.Snapshot()
}

// TestLazyTickSnapshotsOnlyForSecondaries: a publisher with no secondary
// keeps its lazy tick but takes no snapshot, since it has no one to send
// it to; with secondaries every tick snapshots.
func TestLazyTickSnapshotsOnlyForSecondaries(t *testing.T) {
	for _, secs := range [][]node.ID{nil, {"s1"}} {
		s := sim.NewScheduler(5)
		rt := sim.NewRuntime(s, sim.WithDelay(netsim.ConstantDelay(ms)))
		prims := []node.ID{"p0", "p1", "p2"}
		counters := map[node.ID]*snapCounter{}
		gws := map[node.ID]*Gateway{}
		for _, id := range append(append([]node.ID(nil), prims...), secs...) {
			counters[id] = &snapCounter{Application: apps.NewKVStore()}
			gws[id] = New(Config{
				Primary:       id[0] == 'p',
				PrimaryGroup:  prims,
				Secondaries:   secs,
				Clients:       []node.ID{"cli"},
				Group:         group.DefaultConfig(),
				LazyInterval:  10 * ms,
				ChaseInterval: time.Hour,
				App:           counters[id],
			})
			rt.Register(id, gws[id])
		}
		rt.Register("cli", &probe{})
		rt.Start()
		s.RunFor(100 * ms) // start-up: elections, state sync
		var pub node.ID
		for _, id := range prims {
			if gws[id].IsPublisher() {
				pub = id
			}
		}
		if pub == "" {
			t.Fatalf("secondaries %v: no publisher", secs)
		}
		before := counters[pub].n
		s.RunFor(200 * ms)
		if since := s.Now().Sub(gws[pub].lastLazyAt); since > 10*ms {
			t.Fatalf("secondaries %v: last lazy tick %v ago, want the tick kept every 10ms", secs, since)
		}
		got := counters[pub].n - before
		if len(secs) == 0 && got != 0 {
			t.Fatalf("publisher without secondaries took %d snapshots, want 0", got)
		}
		if len(secs) > 0 && got < 10 {
			t.Fatalf("publisher with secondaries took %d snapshots in 200ms, want one per tick", got)
		}
	}
}
