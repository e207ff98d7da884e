// Package live is the real-time runtime: every node gets a mailbox
// goroutine that serializes its message and timer callbacks, exactly
// matching the execution model protocol code sees under the simulator —
// the same gateways run unchanged on either (a node's OnIdle hook, which the
// simulator never fires, is the one difference). Delivery is in-process by
// default; a RemoteSender hook (implemented by tcpnet) routes messages for
// node IDs not registered locally.
//
// The hot path is built for sustained socket traffic: sends resolve the
// destination through a copy-on-write map (no global lock per message),
// each mailbox is a chunked ring drained in batches with one consumer
// wakeup per empty→non-empty transition, and SetTimer is a small CAS state
// machine that releases its runtime timer promptly on cancel.
package live

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/node"
)

// RemoteSender forwards messages to nodes hosted in other processes. It
// must not block indefinitely.
type RemoteSender func(from, to node.ID, m node.Message)

// Runtime hosts nodes on goroutines with real timers.
type Runtime struct {
	mu      sync.Mutex
	nodes   map[node.ID]*liveNode
	nodesCW atomic.Value // map[node.ID]*liveNode, copy-on-write snapshot
	seed    int64
	logW    io.Writer
	logMu   sync.Mutex
	remote  atomic.Value // remoteBox
	started bool
	stopped bool
	timers  atomic.Int64 // armed cancellable timers (SetTimer)
}

// remoteBox wraps RemoteSender so atomic.Value never sees inconsistently
// typed (or nil-interface) stores.
type remoteBox struct{ fn RemoteSender }

// Option configures a Runtime.
type Option func(*Runtime)

// WithSeed seeds per-node random sources (default 1).
func WithSeed(seed int64) Option {
	return func(r *Runtime) { r.seed = seed }
}

// WithLog directs node Logf output to w.
func WithLog(w io.Writer) Option {
	return func(r *Runtime) { r.logW = w }
}

// WithRemote installs the forwarding hook for unknown destinations.
func WithRemote(rs RemoteSender) Option {
	return func(r *Runtime) { r.remote.Store(remoteBox{fn: rs}) }
}

// NewRuntime creates an empty live runtime.
func NewRuntime(opts ...Option) *Runtime {
	r := &Runtime{nodes: make(map[node.ID]*liveNode), seed: 1}
	r.remote.Store(remoteBox{})
	r.nodesCW.Store(map[node.ID]*liveNode{})
	for _, o := range opts {
		o(r)
	}
	return r
}

// SetRemote installs (or replaces) the forwarding hook after construction;
// it breaks the construction cycle between a runtime and the transport that
// needs to inject into it.
func (r *Runtime) SetRemote(rs RemoteSender) {
	r.remote.Store(remoteBox{fn: rs})
}

// Register adds a node. It panics on duplicates and after Start, mirroring
// the simulator's contract.
func (r *Runtime) Register(id node.ID, n node.Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		panic(fmt.Sprintf("live: Register(%q) after Start", id))
	}
	if _, dup := r.nodes[id]; dup {
		panic(fmt.Sprintf("live: duplicate node %q", id))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", r.seed, id)
	r.nodes[id] = newLiveNode(r, id, n, rand.New(rand.NewSource(int64(h.Sum64()))))
	r.publishNodesLocked()
}

// publishNodesLocked refreshes the copy-on-write snapshot; r.mu must be
// held. Registration and StopNode are rare, so copying the map there buys
// lock-free lookups on every send and inject.
func (r *Runtime) publishNodesLocked() {
	snap := make(map[node.ID]*liveNode, len(r.nodes))
	for id, n := range r.nodes {
		snap[id] = n
	}
	r.nodesCW.Store(snap)
}

// lookup resolves a destination without taking the runtime lock.
func (r *Runtime) lookup(to node.ID) *liveNode {
	m, _ := r.nodesCW.Load().(map[node.ID]*liveNode)
	return m[to]
}

// Start initializes every node (in its own goroutine context) and begins
// delivery.
func (r *Runtime) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	nodes := make([]*liveNode, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()

	for _, n := range nodes {
		n.start()
	}
}

// Stop shuts every node down and waits for their goroutines to exit.
func (r *Runtime) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	started := r.started
	nodes := make([]*liveNode, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()

	for _, n := range nodes {
		n.stop(started)
	}
}

// StopNode terminates one node's mailbox goroutine, modelling a crash: it
// stops receiving, its timers stop firing, and messages addressed to it are
// dropped. Unlike the simulator there is no restart; a replacement process
// would register with a fresh runtime and connect over the transport.
func (r *Runtime) StopNode(id node.ID) {
	r.mu.Lock()
	n, ok := r.nodes[id]
	if ok {
		delete(r.nodes, id)
		r.publishNodesLocked()
	}
	started := r.started
	r.mu.Unlock()
	if ok {
		n.stop(started)
	}
}

// Inject delivers a message that arrived from a remote transport to a
// locally hosted node. Unknown destinations are dropped (the peer may have
// stopped).
func (r *Runtime) Inject(from, to node.ID, m node.Message) {
	if dst := r.lookup(to); dst != nil {
		dst.enqueue(envelope{from: from, msg: m})
	}
}

// Local reports whether id is hosted by this runtime.
func (r *Runtime) Local(id node.ID) bool {
	return r.lookup(id) != nil
}

// ActiveTimers reports the number of armed cancellable timers created by
// SetTimer that have neither fired nor been cancelled. It exists for leak
// regression tests.
func (r *Runtime) ActiveTimers() int64 { return r.timers.Load() }

func (r *Runtime) route(from, to node.ID, m node.Message) {
	if dst := r.lookup(to); dst != nil {
		dst.enqueue(envelope{from: from, msg: m})
		return
	}
	if box, _ := r.remote.Load().(remoteBox); box.fn != nil {
		box.fn(from, to, m)
		return
	}
	r.logf("live: dropped message %T from %s to unknown node %s", m, from, to)
}

func (r *Runtime) logf(format string, args ...interface{}) {
	if r.logW == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.logW, format+"\n", args...)
}

// envelope is one mailbox entry: a message, a fire-and-forget callback
// (Post), or a cancellable timer.
type envelope struct {
	from  node.ID
	msg   node.Message
	timer func()
	t     *liveTimer
}

// liveNode owns one node's mailbox goroutine.
type liveNode struct {
	rt   *Runtime
	id   node.ID
	n    node.Node
	rand *rand.Rand

	mb   *mailbox
	done chan struct{}

	// idle is the OnIdle hook; only the node's own goroutine touches it.
	idle func()
}

var _ node.Context = (*liveNode)(nil)

func newLiveNode(rt *Runtime, id node.ID, n node.Node, rng *rand.Rand) *liveNode {
	return &liveNode{
		rt:   rt,
		id:   id,
		n:    n,
		rand: rng,
		mb:   newMailbox(),
		done: make(chan struct{}),
	}
}

func (l *liveNode) start() {
	go l.run()
}

func (l *liveNode) run() {
	defer close(l.done)
	l.n.Init(l)
	var spare *mchunk
	for {
		chain, ok := l.mb.take(spare)
		if !ok {
			dropChain(chain)
			return
		}
		spare = l.drain(chain)
		if l.idle != nil && l.mb.empty() {
			l.idle()
		}
	}
}

// drain runs every envelope of chain in order and returns its chunks as
// one list, zeroed for reuse. Only the envelopes a chunk used are cleared:
// the rest are still zero, and clearing all 256 of a mostly empty chunk
// costs more than the drain itself.
func (l *liveNode) drain(chain *mchunk) (spare *mchunk) {
	for c := chain; c != nil; {
		used := c.envs[:c.w]
		for i := range used {
			env := &used[i]
			switch {
			case env.t != nil:
				env.t.fire()
			case env.timer != nil:
				env.timer()
			default:
				l.n.Recv(env.from, env.msg)
			}
		}
		clear(used) // drop message references
		next := c.next
		c.w, c.next = 0, spare
		spare = c
		c = next
	}
	return spare
}

// dropChain releases timer accounting for envelopes that will never run
// because their node stopped with them still queued.
func dropChain(chain *mchunk) {
	for c := chain; c != nil; c = c.next {
		for _, env := range c.envs[:c.w] {
			if env.t != nil {
				env.t.drop()
			}
		}
	}
}

// enqueue appends to the unbounded mailbox; unbounded so that two nodes
// flooding each other can never deadlock.
func (l *liveNode) enqueue(env envelope) {
	if !l.mb.put(env) && env.t != nil {
		env.t.drop()
	}
}

// enqueueBatch delivers a batch of message envelopes under one lock with at
// most one wakeup (see Batcher).
func (l *liveNode) enqueueBatch(envs []envelope) {
	l.mb.putBatch(envs)
}

// stop ends the mailbox and, when the node's goroutine was started (wait),
// waits for it to exit. A node that was never started has no goroutine to
// close done, so waiting would hang.
func (l *liveNode) stop(wait bool) {
	l.mb.stop()
	if wait {
		<-l.done
	}
}

// ID implements node.Context.
func (l *liveNode) ID() node.ID { return l.id }

// Now implements node.Context.
func (l *liveNode) Now() time.Time { return time.Now() }

// Rand implements node.Context. It is only touched from the node's own
// goroutine.
func (l *liveNode) Rand() *rand.Rand { return l.rand }

// Send implements node.Context.
func (l *liveNode) Send(to node.ID, m node.Message) {
	l.rt.route(l.id, to, m)
}

// liveTimer is a cancellable timer as a tiny CAS state machine:
//
//	0 armed    — AfterFunc pending in the Go runtime
//	1 queued   — fired, envelope sitting in the mailbox
//	2 done     — executed, cancelled, or dropped
//
// Exactly one transition into state 2 happens, and every path into it
// releases the runtime's ActiveTimers count once. Cancel stops the
// underlying time.Timer immediately, so cancelled timers release their Go
// runtime slot promptly instead of holding it until expiry.
type liveTimer struct {
	l     *liveNode
	f     func()
	t     *time.Timer
	state atomic.Uint32
}

const (
	timerArmed uint32 = iota
	timerQueued
	timerDone
)

// fire runs on the mailbox goroutine.
func (t *liveTimer) fire() {
	if t.state.CompareAndSwap(timerQueued, timerDone) {
		t.l.rt.timers.Add(-1)
		t.f()
	}
}

// drop releases accounting for a queued timer whose node stopped.
func (t *liveTimer) drop() {
	if t.state.CompareAndSwap(timerQueued, timerDone) {
		t.l.rt.timers.Add(-1)
	}
}

// cancel is the returned CancelFunc. The node.Context contract says it is
// only invoked from the node's own callbacks, but it is written to be safe
// from any goroutine.
func (t *liveTimer) cancel() {
	for {
		s := t.state.Load()
		if s == timerDone {
			return
		}
		if t.state.CompareAndSwap(s, timerDone) {
			t.t.Stop()
			t.l.rt.timers.Add(-1)
			return
		}
	}
}

// SetTimer implements node.Context: f runs in this node's mailbox, never
// concurrently with Recv.
func (l *liveNode) SetTimer(d time.Duration, f func()) node.CancelFunc {
	t := &liveTimer{l: l, f: f}
	l.rt.timers.Add(1)
	t.t = time.AfterFunc(d, func() {
		if !t.state.CompareAndSwap(timerArmed, timerQueued) {
			return // cancelled while armed
		}
		if !l.mb.put(envelope{t: t}) {
			t.drop() // node stopped; release accounting
		}
	})
	return t.cancel
}

// Post implements node.Context: SetTimer without the cancel machinery.
func (l *liveNode) Post(d time.Duration, f func()) {
	time.AfterFunc(d, func() {
		l.enqueue(envelope{timer: f})
	})
}

// OnIdle implements node.Context: f runs on the mailbox goroutine after a
// batch of callbacks, once the mailbox is found empty. Checking costs one
// mailbox lock per drained batch, paid only by nodes that registered.
func (l *liveNode) OnIdle(f func()) { l.idle = f }

// Logf implements node.Context.
func (l *liveNode) Logf(format string, args ...interface{}) {
	l.rt.logf("%-14s "+format, append([]interface{}{l.id}, args...)...)
}
