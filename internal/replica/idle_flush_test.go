package replica

import (
	"testing"
	"time"

	"aqua/internal/apps"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/sim"
	"aqua/internal/wal"
)

// idleCtx is a simulator context that captures the OnIdle hook, which the
// simulator itself never fires, so a test can fire it at chosen instants
// the way the live runtime does when a mailbox drains. It also counts the
// sends made through it.
type idleCtx struct {
	node.Context
	idle  func()
	sends int
}

func (c *idleCtx) OnIdle(f func()) { c.idle = f }

func (c *idleCtx) Send(to node.ID, m node.Message) {
	c.sends++
	c.Context.Send(to, m)
}

// idleGateway hands the gateway the capturing context in place of its
// runtime context.
type idleGateway struct {
	*Gateway
	ctx *idleCtx
}

func (n idleGateway) Init(ctx node.Context) {
	n.ctx.Context = ctx
	n.Gateway.Init(n.ctx)
}

const idleWindow = 5 * ms

// newIdleTestbed deploys sequencer p0 and primaries p1, p2 with a
// four-request assignment window of idleWindow, each behind an idleCtx.
// durable gives every primary an in-memory WAL and replicated assignment,
// the production ordering path.
func newIdleTestbed(t *testing.T, durable bool) (*testbed, map[node.ID]*idleCtx) {
	t.Helper()
	s := sim.NewScheduler(47)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.ConstantDelay(ms)))
	tb := &testbed{s: s, rt: rt, replicas: make(map[node.ID]*Gateway), cli: &probe{}}
	ctxs := make(map[node.ID]*idleCtx)
	for _, id := range []node.ID{"p0", "p1", "p2"} {
		cfg := Config{
			Primary:           true,
			PrimaryGroup:      []node.ID{"p0", "p1", "p2"},
			Clients:           []node.ID{"cli"},
			Group:             group.DefaultConfig(),
			LazyInterval:      30 * time.Second,
			App:               apps.NewKVStore(),
			AssignBatch:       4,
			AssignBatchWindow: idleWindow,
		}
		if durable {
			cfg.Durable = wal.NewStore(wal.NewMemMedia())
			cfg.ReplicatedAssign = true
		}
		g := New(cfg)
		tb.replicas[id] = g
		ctxs[id] = &idleCtx{}
		rt.Register(id, idleGateway{g, ctxs[id]})
	}
	rt.Register("cli", tb.cli)
	rt.Start()
	s.RunFor(200 * ms)
	if ctxs["p0"].idle == nil || !tb.replicas["p0"].IsLeader() {
		t.Fatal("sequencer p0 registered no idle hook")
	}
	return tb, ctxs
}

// TestIdleFlushLeadingEdge pins when a window leaves once the runtime
// reports a drained mailbox: at once on an idle sequencer; at the next
// drain however recent the last flush, on a volatile and a durable leader
// alike; at once when full; and never from a replica that is not the
// sequencer.
func TestIdleFlushLeadingEdge(t *testing.T) {
	t.Run("volatile", func(t *testing.T) { testIdleFlushLeadingEdge(t, false) })
	t.Run("durable", func(t *testing.T) { testIdleFlushLeadingEdge(t, true) })
}

func testIdleFlushLeadingEdge(t *testing.T, durable bool) {
	tb, ctxs := newIdleTestbed(t, durable)
	p0, seq := tb.replicas["p0"], ctxs["p0"]
	flushes := func() uint64 { f, _ := p0.AssignBatchStats(); return f }

	// A request reaching an idle sequencer leaves at the idle instant.
	tb.s.After(0, func() {
		p0.onRequest("cli", req(1, false, "Set", "k1=1", 0))
		if got := flushes(); got != 0 {
			t.Fatalf("a one-request window flushed %d times on arrival, want 0", got)
		}
		sent := seq.sends
		seq.idle()
		if got := flushes(); got != 1 {
			t.Fatalf("idle hook flushed %d windows, want 1", got)
		}
		if seq.sends == sent {
			t.Fatal("idle flush broadcast nothing")
		}
	})
	tb.s.RunFor(ms)

	// A second request within the window of that flush leaves at the next
	// drain too, and the timer armed by the first finds the window empty.
	tb.s.After(0, func() {
		p0.onRequest("cli", req(2, false, "Set", "k2=2", 0))
		sent := seq.sends
		seq.idle()
		if got := flushes(); got != 2 || seq.sends == sent {
			t.Fatalf("idle hook inside the window: %d flushes, %d sends, want 2 flushes and a broadcast", got, seq.sends-sent)
		}
	})
	tb.s.RunFor(5 * ms)
	if got := flushes(); got != 2 {
		t.Fatalf("%d windows flushed, want 2 in all", got)
	}

	// A full window leaves at once, however recent the last flush.
	tb.s.After(0, func() {
		for seq := uint64(3); seq <= 6; seq++ {
			p0.onRequest("cli", req(seq, false, "Set", "k=v", 0))
		}
		if got := flushes(); got != 3 {
			t.Fatalf("full window: %d flushes, want 3", got)
		}
	})
	tb.s.RunFor(time.Second)
	if got := tb.replicas["p2"].Applied(); got != 6 {
		t.Fatalf("p2 applied %d updates, want 6", got)
	}

	// A primary that is not the sequencer has no window to send; its hook
	// sends nothing even with a request stranded in its window.
	p1, c1 := tb.replicas["p1"], ctxs["p1"]
	tb.s.After(0, func() {
		p1.batchUpdates = append(p1.batchUpdates, req(7, false, "Set", "k=v", 0).ID)
		sent := c1.sends
		c1.idle()
		if c1.sends != sent {
			t.Fatalf("non-leader idle hook sent %d messages, want 0", c1.sends-sent)
		}
		if f, _ := p1.AssignBatchStats(); f != 0 {
			t.Fatalf("non-leader flushed %d windows", f)
		}
	})
	tb.s.RunFor(ms)
}

// TestIdleFlushZeroAlloc: the idle hook runs after every drained mailbox
// on the live runtime, so its no-flush path, an empty window, must not
// allocate on either kind of leader.
func TestIdleFlushZeroAlloc(t *testing.T) {
	for _, durable := range []bool{false, true} {
		_, ctxs := newIdleTestbed(t, durable)
		if a := testing.AllocsPerRun(100, ctxs["p0"].idle); a != 0 {
			t.Fatalf("idle hook with an empty window (durable=%v) allocated %.1f/op, want 0", durable, a)
		}
	}
}
