package sim

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/obs"
)

// Runtime executes nodes on a Scheduler. It implements message delivery with
// a configurable delay/loss model and supports crash injection. Like the
// Scheduler it wraps, it is single-threaded by design.
//
// The delivery path is allocation-lean: every send reuses a pooled delivery
// record whose callback was bound once at record creation (no per-message
// closure), node contexts are resolved through a dense slot table instead of
// repeated map[node.ID]*nodeCtx lookups, and the scheduler recycles the
// underlying event structs. Experiment runs churn through millions of
// messages, so this path dominates simulator cost.
type Runtime struct {
	sched   *Scheduler
	delay   netsim.DelayModel
	loss    netsim.LossModel
	dup     netsim.DupModel // resolved from loss at construction; nil = off
	netRand *rand.Rand
	// slots interns each registered ID to a dense index into ctxs; ctxs[i]
	// is the current incarnation (Restart swaps the slot in place). Slot
	// order is registration order.
	slots map[node.ID]int32
	ctxs  []*nodeCtx
	// ids is the sorted ID list, maintained incrementally at Register so
	// IDs() never re-sorts.
	ids        []node.ID
	started    bool
	logW       io.Writer
	sent       uint64
	dropped    uint64
	duplicated uint64
	freeDeliv  []*delivery
	freeTimer  []*timerRec

	// High-water marks of the last ObserveInto, so repeated observations
	// export deltas rather than double-counting.
	obsEvents  uint64
	obsSent    uint64
	obsDropped uint64
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithDelay sets the network delay model. The default is a constant 0.
func WithDelay(d netsim.DelayModel) Option {
	return func(r *Runtime) { r.delay = d }
}

// WithLoss sets the network loss model. The default drops nothing.
func WithLoss(l netsim.LossModel) Option {
	return func(r *Runtime) { r.loss = l }
}

// WithLog directs node Logf output to w. The default discards it.
func WithLog(w io.Writer) Option {
	return func(r *Runtime) { r.logW = w }
}

// NewRuntime creates a runtime over sched.
func NewRuntime(sched *Scheduler, opts ...Option) *Runtime {
	r := &Runtime{
		sched: sched,
		delay: netsim.ConstantDelay(0),
		loss:  netsim.NoLoss{},
		slots: make(map[node.ID]int32),
	}
	for _, o := range opts {
		o(r)
	}
	// Duplication is opt-in: a loss model that also implements DupModel
	// (the chaos fault layer) enables it. Resolving the assertion once here
	// keeps the per-message delivery path free of interface checks.
	r.dup, _ = r.loss.(netsim.DupModel)
	r.netRand = sched.DeriveRand("netsim")
	return r
}

// Scheduler returns the underlying scheduler, for tests and experiment
// drivers that need direct control of virtual time.
func (r *Runtime) Scheduler() *Scheduler { return r.sched }

// Register adds n under id. It panics on duplicate registration, which is
// always a wiring bug. Registration must precede Start.
func (r *Runtime) Register(id node.ID, n node.Node) {
	if _, dup := r.slots[id]; dup {
		panic(fmt.Sprintf("sim: duplicate node %q", id))
	}
	if r.started {
		panic(fmt.Sprintf("sim: Register(%q) after Start", id))
	}
	r.slots[id] = int32(len(r.ctxs))
	r.ctxs = append(r.ctxs, &nodeCtx{rt: r, id: id, n: n, rand: r.sched.DeriveRand("node/" + string(id))})
	// Insert into the sorted ID list in place.
	pos := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	r.ids = append(r.ids, "")
	copy(r.ids[pos+1:], r.ids[pos:])
	r.ids[pos] = id
}

// Start calls Init on every registered node, in registration order.
func (r *Runtime) Start() {
	if r.started {
		return
	}
	r.started = true
	for _, nc := range r.ctxs {
		nc.n.Init(nc)
	}
}

// lookup returns the current incarnation registered under id, or nil.
func (r *Runtime) lookup(id node.ID) *nodeCtx {
	if slot, ok := r.slots[id]; ok {
		return r.ctxs[slot]
	}
	return nil
}

// Crash makes id stop receiving and sending messages and disables its
// pending and future timers, modelling a crash failure.
func (r *Runtime) Crash(id node.ID) {
	if nc := r.lookup(id); nc != nil {
		nc.crashed = true
	}
}

// Crashed reports whether id has been crashed.
func (r *Runtime) Crashed(id node.ID) bool {
	nc := r.lookup(id)
	return nc != nil && nc.crashed
}

// Restart models a process restart: the crashed node is replaced by a
// fresh instance n (all volatile state lost, exactly like a real restart)
// whose Init runs immediately. Any recovery/state transfer is the
// protocol's job. It panics if id was never registered.
func (r *Runtime) Restart(id node.ID, n node.Node) {
	slot, ok := r.slots[id]
	if !ok {
		panic(fmt.Sprintf("sim: Restart of unknown node %q", id))
	}
	// The old incarnation stays crashed forever; in-flight messages and
	// timers addressed to it die with it (delivery records and timers hold
	// the incarnation pointer captured at send time, not the slot).
	r.ctxs[slot].crashed = true
	fresh := &nodeCtx{rt: r, id: id, n: n, rand: r.sched.DeriveRand("node/" + string(id) + "/restart")}
	r.ctxs[slot] = fresh
	n.Init(fresh)
}

// IDs returns the registered node IDs in sorted order. The slice is shared
// and maintained incrementally; callers must not modify it.
func (r *Runtime) IDs() []node.ID { return r.ids }

// Stats returns the number of messages sent and dropped so far.
func (r *Runtime) Stats() (sent, dropped uint64) { return r.sent, r.dropped }

// Duplicated returns the number of extra message copies injected by the
// duplication fault model.
func (r *Runtime) Duplicated() uint64 { return r.duplicated }

// ObserveInto folds the runtime's counters into reg as deltas since the
// previous ObserveInto call. The simulator itself carries no instruments —
// hot-path hooks could never perturb virtual time, but keeping them out
// makes that property trivially true — so observability reads the totals
// after (or between) runs instead. Safe to call repeatedly; a nil registry
// is a no-op.
func (r *Runtime) ObserveInto(reg *obs.Registry) {
	if reg == nil {
		return
	}
	events := r.sched.Events()
	reg.Counter("sim_scheduler_events_total").Add(events - r.obsEvents)
	reg.Counter("sim_messages_sent_total").Add(r.sent - r.obsSent)
	reg.Counter("sim_messages_dropped_total").Add(r.dropped - r.obsDropped)
	r.obsEvents, r.obsSent, r.obsDropped = events, r.sent, r.dropped
}

// delivery is a pooled in-flight message. run is bound to fire once, at
// record creation, so scheduling a delivery allocates nothing once the pool
// is warm.
type delivery struct {
	rt       *Runtime
	src, dst *nodeCtx
	msg      node.Message
	run      func()
}

func (d *delivery) fire() {
	src, dst, m := d.src, d.dst, d.msg
	// Release before delivering: Recv commonly sends further messages, and
	// this record is the first the pool will hand back.
	d.src, d.dst, d.msg = nil, nil, nil
	d.rt.freeDeliv = append(d.rt.freeDeliv, d)
	if dst.crashed || src.crashed {
		// A message already in flight from a node that has since
		// crashed is still delivered in a real network; we model the
		// common simulation simplification of dropping both
		// directions at crash time, which only strengthens the
		// failure scenarios the protocols must survive.
		d.rt.dropped++
		return
	}
	dst.n.Recv(src.id, m)
}

func (r *Runtime) deliver(src *nodeCtx, to node.ID, m node.Message) {
	if src.crashed {
		return
	}
	dst := r.lookup(to)
	if dst == nil {
		panic(fmt.Sprintf("sim: send from %q to unknown node %q", src.id, to))
	}
	r.sent++
	if r.loss.Drop(r.netRand, src.id, to) {
		r.dropped++
		return
	}
	r.post(src, dst, m)
	if r.dup != nil {
		// Each extra copy draws its own delay, so duplicates may overtake
		// the original — duplication and reordering in one fault.
		for extra := r.dup.Dup(r.netRand, src.id, to); extra > 0; extra-- {
			r.duplicated++
			r.post(src, dst, m)
		}
	}
}

// post schedules one delivery of m with a fresh delay draw.
func (r *Runtime) post(src, dst *nodeCtx, m node.Message) {
	d := r.delay.Delay(r.netRand, src.id, dst.id)
	var rec *delivery
	if n := len(r.freeDeliv); n > 0 {
		rec = r.freeDeliv[n-1]
		r.freeDeliv[n-1] = nil
		r.freeDeliv = r.freeDeliv[:n-1]
	} else {
		rec = &delivery{rt: r}
		rec.run = rec.fire
	}
	rec.src, rec.dst, rec.msg = src, dst, m
	r.sched.Post(d, rec.run)
}

// timerRec is a pooled node timer. Like delivery, run is bound once so a
// timer costs no wrapper-closure allocation; the scheduler-side cancel
// handle is the only per-timer allocation left.
type timerRec struct {
	c      *nodeCtx
	f      func()
	run    func()
	pooled bool
}

func (t *timerRec) fire() {
	if t.pooled {
		panic("sim: timerRec double fire (already pooled)")
	}
	c, f := t.c, t.f
	t.c, t.f = nil, nil
	t.pooled = true
	c.rt.freeTimer = append(c.rt.freeTimer, t)
	if c.crashed {
		return
	}
	f()
}

// nodeCtx implements node.Context for one registered node.
type nodeCtx struct {
	rt      *Runtime
	id      node.ID
	n       node.Node
	rand    *rand.Rand
	crashed bool
}

var _ node.Context = (*nodeCtx)(nil)

func (c *nodeCtx) ID() node.ID      { return c.id }
func (c *nodeCtx) Now() time.Time   { return c.rt.sched.Now() }
func (c *nodeCtx) Rand() *rand.Rand { return c.rand }

func (c *nodeCtx) Send(to node.ID, m node.Message) {
	c.rt.deliver(c, to, m)
}

func (c *nodeCtx) timerRec(f func()) *timerRec {
	r := c.rt
	var rec *timerRec
	if n := len(r.freeTimer); n > 0 {
		rec = r.freeTimer[n-1]
		r.freeTimer[n-1] = nil
		r.freeTimer = r.freeTimer[:n-1]
		rec.pooled = false
	} else {
		rec = new(timerRec)
		rec.run = rec.fire
	}
	rec.c, rec.f = c, f
	return rec
}

func (c *nodeCtx) SetTimer(d time.Duration, f func()) node.CancelFunc {
	return node.CancelFunc(c.rt.sched.After(d, c.timerRec(f).run))
}

func (c *nodeCtx) Post(d time.Duration, f func()) {
	c.rt.sched.Post(d, c.timerRec(f).run)
}

// OnIdle implements node.Context: in virtual time there is no mailbox to
// drain, so the hook never fires and timers alone pace a node's work.
func (c *nodeCtx) OnIdle(func()) {}

func (c *nodeCtx) Logf(format string, args ...interface{}) {
	if c.rt.logW == nil {
		return
	}
	elapsed := c.rt.sched.Now().Sub(Epoch)
	fmt.Fprintf(c.rt.logW, "%12s %-14s "+format+"\n",
		append([]interface{}{elapsed, c.id}, args...)...)
}
