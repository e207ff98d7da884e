// Open-loop load engine: one node that stands in for a large client
// population by issuing its aggregate request stream, instead of one runtime
// node per client. Arrivals come from a pluggable stochastic process and are
// issued regardless of completions — the open-loop model that exposes
// saturation, unlike closed-loop drivers whose offered rate collapses to the
// service rate under overload. The engine routes every request by key over a
// list of shards; an unsharded service is a list of one, and it accounts
// every request against a read deadline and an expiry bound.
package workload

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/stats"
)

// Process generates successive inter-arrival gaps of the aggregate request
// stream. Implementations may be stateful and are owned by one engine —
// never share an instance across engines.
type Process interface {
	Gap(r *rand.Rand) time.Duration
}

// Poisson is a homogeneous Poisson arrival process: the superposition of
// many independent clients each issuing rarely, which is exactly how the
// engine's simulated population behaves in aggregate.
type Poisson struct {
	Rate float64 // events per second
}

// Gap implements Process: an exponential gap at Rate. A non-positive rate
// yields an hour — effectively off.
func (p Poisson) Gap(r *rand.Rand) time.Duration {
	if p.Rate <= 0 {
		return time.Hour
	}
	u := r.Float64()
	for u <= 0 {
		u = r.Float64()
	}
	return time.Duration(-math.Log(u) / p.Rate * float64(time.Second))
}

// EngineConfig describes one open-loop load engine.
type EngineConfig struct {
	// Arrivals drives the aggregate request stream. Required.
	Arrivals Process
	// ReadFraction is the probability an arrival is a read (0 = all
	// updates, 1 = all reads).
	ReadFraction float64
	// Staleness is the read staleness bound a (0 = sequential consistency).
	Staleness int
	// Deadline classifies read completions: past it they count as timing
	// failures (default 50ms). A request still pending after
	// max(8×Deadline, 1s) is written off as expired.
	Deadline time.Duration

	// Keys, when set, draws a per-request key (updates write
	// "<key>=<seq>", reads carry the bare key). Nil sends every request to
	// the single key "x" and draws no extra rand per request.
	Keys KeyDist
	// Shards tells the engine where the replicas are, one entry per
	// deployment; an unsharded service is a one-entry slice. Each request
	// goes to the shard owning its key: a read to that shard's sequencer
	// plus one serving primary (round-robin), an update to its whole
	// primary group. Required.
	Shards []client.ServiceInfo
	// ShardOf maps a key to its owning shard index (e.g. shard.Map.Owner).
	// Required with more than one shard.
	ShardOf func(key string) int
}

// maxPending bounds tracked in-flight requests; arrivals beyond it are shed
// and counted. This is the engine's backpressure valve — an open-loop
// generator must bound its own memory when the service saturates.
const maxPending = 1 << 16

// engineBucketBoundsMS are the latency histogram bounds in milliseconds:
// geometric from 50µs (the frontier fast path's territory) to 5s.
var engineBucketBoundsMS = []float64{
	0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
}

// LatencyHist is a fixed-bucket latency histogram with value semantics:
// snapshots copy.
type LatencyHist struct {
	Counts [17]uint64 // len(engineBucketBoundsMS)+1; last is overflow
}

// Observe records one latency.
func (h *LatencyHist) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(engineBucketBoundsMS) && ms > engineBucketBoundsMS[i] {
		i++
	}
	h.Counts[i]++
}

// Total returns the number of observations.
func (h LatencyHist) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile estimates the q-th latency quantile from the buckets.
func (h LatencyHist) Quantile(q float64) time.Duration {
	ms := stats.BucketQuantile(engineBucketBoundsMS, h.Counts[:], q)
	return time.Duration(ms * float64(time.Millisecond))
}

// EngineMetrics aggregates the engine's accounting. It has value
// semantics: a snapshot copies.
type EngineMetrics struct {
	Issued  uint64 // requests actually transmitted
	Reads   uint64
	Updates uint64
	Shed    uint64 // arrivals dropped at the maxPending bound

	Completed   uint64
	ReadsDone   uint64
	UpdatesDone uint64
	Expired     uint64 // pending past max(8×Deadline, 1s), written off

	// TimingFailures counts reads that completed past Deadline or expired.
	TimingFailures uint64

	ReadLatency   LatencyHist
	UpdateLatency LatencyHist
}

// engPending is one in-flight request's accounting state.
type engPending struct {
	t0    time.Time
	shard int // owning shard index
	read  bool
}

// engShard is the engine's per-shard routing state: the shard's current
// sequencer view and its round-robin read cursor.
type engShard struct {
	info        client.ServiceInfo
	sequencer   node.ID
	readTargets []node.ID // every primary except the sequencer
	rr          int

	issued    uint64
	completed uint64
}

// Engine is the open-loop load generator; it implements node.Node and is
// registered with the runtime like any other node (it is not deployed by
// core.Deploy — experiments register it beside a deployed service).
type Engine struct {
	cfg         EngineConfig
	ctx         node.Context
	expireAfter time.Duration

	stack        *group.Stack
	shards       []engShard
	replicaShard map[node.ID]int

	nextSeq uint64

	pending map[uint64]engPending
	order   []uint64 // pending seqs in issue order; head indexes the oldest
	head    int

	// mu guards the accounting (m, pending bookkeeping, shard counters) so
	// Metrics/Pending/ShardCounts can snapshot mid-run on the live runtime,
	// where the engine's mailbox goroutine runs concurrently with the
	// measuring goroutine. Under the simulator the lock is uncontended and
	// changes nothing observable.
	mu sync.Mutex
	m  EngineMetrics

	arrivalFn func()
	sweepFn   func()
}

var _ node.Node = (*Engine)(nil)

// NewEngine creates an engine; register it with the runtime under a unique
// node ID before starting the scheduler.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Arrivals == nil || len(cfg.Shards) == 0 {
		panic("workload: EngineConfig.Arrivals and Shards are required")
	}
	if len(cfg.Shards) > 1 && cfg.ShardOf == nil {
		panic("workload: EngineConfig.ShardOf is required with more than one shard")
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 50 * time.Millisecond
	}
	e := &Engine{
		cfg:          cfg,
		expireAfter:  max(8*cfg.Deadline, time.Second),
		pending:      make(map[uint64]engPending),
		replicaShard: make(map[node.ID]int),
	}
	for i, info := range cfg.Shards {
		s := engShard{info: info, sequencer: info.Sequencer}
		for _, id := range info.Primaries {
			e.replicaShard[id] = i
			if id != info.Sequencer {
				s.readTargets = append(s.readTargets, id)
			}
		}
		for _, id := range info.Secondaries {
			e.replicaShard[id] = i
		}
		e.shards = append(e.shards, s)
	}
	return e
}

// Init implements node.Node.
func (e *Engine) Init(ctx node.Context) {
	e.ctx = ctx
	// Reliable FIFO links with retransmission and no heartbeats: the client
	// substrate default.
	g := group.DefaultConfig()
	g.HeartbeatInterval = 0
	g.FailTimeout = 0
	e.stack = group.NewStack(ctx, g, e.deliver)
	e.arrivalFn = e.arrival
	e.sweepFn = e.sweep
	ctx.Post(e.cfg.Arrivals.Gap(ctx.Rand()), e.arrivalFn)
	ctx.Post(e.expireAfter/4, e.sweepFn)
}

// Recv implements node.Node. Everything of interest arrives through the
// substrate; raw messages are dropped.
func (e *Engine) Recv(from node.ID, m node.Message) {
	e.stack.Handle(from, m)
}

// Metrics returns a snapshot of the engine's accounting. Safe to call from
// outside the engine's goroutine while a live run is in progress.
func (e *Engine) Metrics() EngineMetrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m
}

// Pending returns the current in-flight request count.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// arrival issues one request (or sheds it) and schedules the next — the
// open loop: the schedule depends only on the arrival process, never on
// completions.
func (e *Engine) arrival() {
	e.mu.Lock()
	e.issue()
	e.mu.Unlock()
	e.ctx.Post(e.cfg.Arrivals.Gap(e.ctx.Rand()), e.arrivalFn)
}

func (e *Engine) issue() {
	if len(e.pending) >= maxPending {
		e.m.Shed++
		return
	}
	e.nextSeq++
	id := consistency.RequestID{Client: e.ctx.ID(), Seq: e.nextSeq}
	read := e.ctx.Rand().Float64() < e.cfg.ReadFraction

	// The key draw happens only when Keys is configured, so the single-key
	// stream's rand sequence is untouched.
	key := "x"
	if e.cfg.Keys != nil {
		key = e.cfg.Keys.Key(e.ctx.Rand())
	}
	sh := 0
	if e.cfg.ShardOf != nil {
		sh = e.cfg.ShardOf(key)
	}
	s := &e.shards[sh]
	s.issued++

	req := consistency.Request{ID: id, ReadOnly: read}
	if read {
		req.Method = "Get"
		req.Payload = []byte(key)
		req.Staleness = e.cfg.Staleness
		e.m.Reads++
		// The sequencer orders the read; one serving replica answers it.
		e.stack.Send(s.sequencer, req)
		if len(s.readTargets) > 0 {
			e.stack.Send(s.readTargets[s.rr], req)
			s.rr = (s.rr + 1) % len(s.readTargets)
		}
	} else {
		req.Method = "Set"
		// Fresh payload per update: replicas retain the body until commit.
		buf := make([]byte, 0, len(key)+21)
		buf = append(buf, key...)
		buf = append(buf, '=')
		req.Payload = strconv.AppendUint(buf, e.nextSeq, 10)
		e.m.Updates++
		for _, p := range s.info.Primaries {
			e.stack.Send(p, req)
		}
	}
	e.m.Issued++
	e.pending[e.nextSeq] = engPending{t0: e.ctx.Now(), shard: sh, read: read}
	e.order = append(e.order, e.nextSeq)
}

// sweep expires pending requests older than expireAfter, walking the FIFO
// order ring from its head — entries are issued in time order, so the scan
// stops at the first live one.
func (e *Engine) sweep() {
	cutoff := e.ctx.Now().Add(-e.expireAfter)
	e.mu.Lock()
	for e.head < len(e.order) {
		seq := e.order[e.head]
		p, ok := e.pending[seq]
		if ok && p.t0.After(cutoff) {
			break
		}
		e.head++
		if !ok {
			continue // completed; ring entry already stale
		}
		delete(e.pending, seq)
		e.m.Expired++
		if p.read {
			e.m.TimingFailures++
		}
	}
	// Compact the ring once the dead prefix dominates.
	if e.head > 4096 && e.head > len(e.order)/2 {
		e.order = append(e.order[:0], e.order[e.head:]...)
		e.head = 0
	}
	e.mu.Unlock()
	e.ctx.Post(e.expireAfter/4, e.sweepFn)
}

func (e *Engine) deliver(from node.ID, m node.Message) {
	switch msg := m.(type) {
	case consistency.Reply:
		e.onReply(msg)
	case *consistency.Reply:
		// Pointer form from the live transport's shared decoder.
		e.onReply(*msg)
	case consistency.SequencerAnnounce:
		e.setSequencer(from, msg.Sequencer)
	case consistency.PerfBroadcast:
		if msg.Sequencer != "" {
			e.setSequencer(msg.Replica, msg.Sequencer)
		}
	default:
		// The engine models clients that ignore everything else.
	}
}

// setSequencer records a sequencer failover in the announcing replica's
// shard; announcements from unknown senders are ignored rather than
// cross-wired into another shard.
func (e *Engine) setSequencer(from node.ID, seq node.ID) {
	if i, ok := e.replicaShard[from]; ok {
		e.shards[i].sequencer = seq
	}
}

// ShardCounts returns per-shard issued and completed request counts — the
// skew evidence for hot-shard runs.
func (e *Engine) ShardCounts() (issued, completed []uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.shards {
		issued = append(issued, e.shards[i].issued)
		completed = append(completed, e.shards[i].completed)
	}
	return issued, completed
}

func (e *Engine) onReply(r consistency.Reply) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.pending[r.ID.Seq]
	if !ok {
		return // duplicate reply (read fan-out) or already expired
	}
	delete(e.pending, r.ID.Seq)
	e.shards[p.shard].completed++
	lat := e.ctx.Now().Sub(p.t0)
	e.m.Completed++
	if p.read {
		e.m.ReadsDone++
		e.m.ReadLatency.Observe(lat)
		if lat > e.cfg.Deadline {
			e.m.TimingFailures++
		}
	} else {
		e.m.UpdatesDone++
		e.m.UpdateLatency.Observe(lat)
	}
}
