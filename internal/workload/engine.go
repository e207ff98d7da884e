// Open-loop load engine: one node that simulates a large client population
// (up to ~10^6 logical clients) as lightweight per-client state instead of
// one runtime node per client. Arrivals come from a pluggable stochastic
// process and are issued regardless of completions — the open-loop model
// that exposes saturation, unlike closed-loop drivers whose offered rate
// collapses to the service rate under overload. Deadline and expiry
// accounting per request feeds the load-ramp experiments.
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
// stream. elapsed is the virtual time since the engine started, letting
// time-varying processes know their phase. Implementations may be stateful
// and are owned by one engine — never share an instance across engines.
type Process interface {
	Gap(r *rand.Rand, elapsed time.Duration) time.Duration
}

// expGap draws an exponential inter-arrival gap for the given rate
// (events/second). Non-positive rates yield an hour — effectively off.
func expGap(r *rand.Rand, rate float64) time.Duration {
	if rate <= 0 {
		return time.Hour
	}
	u := r.Float64()
	for u <= 0 {
		u = r.Float64()
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}

// Poisson is a homogeneous Poisson arrival process: the superposition of
// many independent clients each issuing rarely, which is exactly how the
// engine's simulated population behaves in aggregate.
type Poisson struct {
	Rate float64 // events per second
}

// Gap implements Process.
func (p Poisson) Gap(r *rand.Rand, _ time.Duration) time.Duration {
	return expGap(r, p.Rate)
}

// MMPP is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at LowRate or HighRate, with exponentially distributed sojourns
// in each state. It produces the clumped traffic that stresses the
// staleness model's Poisson assumption while keeping a known mean rate.
type MMPP struct {
	LowRate, HighRate float64       // events per second in each state
	MeanLow, MeanHigh time.Duration // mean sojourn per state

	high bool
	left time.Duration // remaining sojourn in the current state
}

// Gap implements Process. A candidate gap that would outlive the current
// sojourn is discarded: the process advances to the state switch and
// redraws at the new rate — exact for exponential gaps, which are
// memoryless past the boundary.
func (m *MMPP) Gap(r *rand.Rand, _ time.Duration) time.Duration {
	if m.left <= 0 {
		m.left = m.drawSojourn(r)
	}
	var total time.Duration
	for {
		rate := m.LowRate
		if m.high {
			rate = m.HighRate
		}
		if g := expGap(r, rate); g < m.left {
			m.left -= g
			return total + g
		}
		total += m.left
		m.high = !m.high
		m.left = m.drawSojourn(r)
	}
}

func (m *MMPP) drawSojourn(r *rand.Rand) time.Duration {
	mean := m.MeanLow
	if m.high {
		mean = m.MeanHigh
	}
	return expGap(r, float64(time.Second)/float64(mean))
}

// Diurnal is a non-homogeneous Poisson process whose rate swings
// sinusoidally between Base and Peak over Period — a compressed diurnal
// ramp. Gaps are drawn by Lewis–Shedler thinning against Peak, so the
// instantaneous rate tracks the profile exactly.
type Diurnal struct {
	Base, Peak float64 // events per second at trough and crest
	Period     time.Duration
}

// Gap implements Process.
func (d Diurnal) Gap(r *rand.Rand, elapsed time.Duration) time.Duration {
	if d.Peak <= 0 {
		return time.Hour
	}
	var gap time.Duration
	for {
		gap += expGap(r, d.Peak)
		phase := 2 * math.Pi * float64(elapsed+gap) / float64(d.Period)
		rate := d.Base + (d.Peak-d.Base)*0.5*(1-math.Cos(phase))
		if r.Float64()*d.Peak <= rate {
			return gap
		}
	}
}

// EngineConfig describes one open-loop load engine.
type EngineConfig struct {
	// Service tells the engine where the replicas are; reads go to the
	// sequencer plus serving replicas, updates to the whole primary group.
	Service client.ServiceInfo
	// Group tunes the substrate. The zero value gets reliable FIFO links
	// with retransmission and no heartbeats (the client default).
	Group group.Config
	// Clients is the simulated population size (default 1, up to ~10^6).
	// Arrivals are attributed round-robin, so the per-client rate is the
	// aggregate rate divided by Clients.
	Clients int
	// Arrivals drives the aggregate request stream. Required.
	Arrivals Process
	// ArrivalCoalesce, when positive, quantizes the arrival schedule on the
	// live runtime: consecutive inter-arrival gaps are summed until they
	// reach this span, and that many requests are issued in one timer fire.
	// This trades per-arrival timer precision for far fewer runtime timers
	// at high offered rates (a real load generator's batching). Zero (the
	// default) keeps one timer per arrival — the simulator experiments use
	// that and are byte-identical to before this knob existed.
	ArrivalCoalesce time.Duration
	// ReadFraction is the probability an arrival is a read (0 = all
	// updates, 1 = all reads).
	ReadFraction float64
	// ReadMethod/ReadPayload form read requests (defaults "Get"/"x").
	ReadMethod  string
	ReadPayload []byte
	// UpdateMethod/UpdateKey form updates as "key=<seq>" (defaults
	// "Set"/"x").
	UpdateMethod string
	UpdateKey    string
	// Staleness is the read staleness bound a (0 = sequential consistency).
	Staleness int
	// Deadline classifies read completions: past it they count as timing
	// failures (default 50ms).
	Deadline time.Duration
	// ExpireAfter bounds how long a request may stay pending before it is
	// written off as lost (default max(8×Deadline, 1s)). Expired reads
	// count as timing failures.
	ExpireAfter time.Duration
	// MaxPending bounds tracked in-flight requests; arrivals beyond it are
	// shed and counted (default 65536). This is the engine's backpressure
	// valve — an open-loop generator must bound its own memory when the
	// service saturates.
	MaxPending int
	// PerClientCap bounds outstanding requests per simulated client
	// (0 = unlimited); arrivals hitting a saturated client are shed.
	PerClientCap int
	// MaxRequests stops the generator after that many arrivals
	// (0 = run until the scheduler stops).
	MaxRequests uint64
	// FanoutReads is how many serving replicas receive each read
	// (default 1; the sequencer always gets a copy for GSN assignment).
	FanoutReads int
	// ReadTargets overrides the read-serving set (default: every primary
	// except the sequencer).
	ReadTargets []node.ID

	// Keys, when set, draws a per-request key instead of the fixed
	// UpdateKey/ReadPayload (updates write "<key>=<seq>", reads carry the
	// bare key). Nil keeps the historical single-key stream — and the
	// historical rand-draw sequence, so every existing run stays
	// byte-identical.
	Keys KeyDist
	// Shards, when non-nil, runs the engine against a sharded service: each
	// request routes to the deployment owning its key — reads to that
	// shard's sequencer plus its serving replicas, updates to its primary
	// group. Service is ignored in this mode; Keys and ShardOf are
	// required.
	Shards []client.ServiceInfo
	// ShardOf maps a key to its owning shard index (e.g. shard.Map.Owner).
	ShardOf func(key string) int
}

func (c *EngineConfig) setDefaults() {
	if c.Group.RetransmitInterval == 0 {
		g := group.DefaultConfig()
		g.HeartbeatInterval = 0
		g.FailTimeout = 0
		c.Group = g
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.ReadMethod == "" {
		c.ReadMethod = "Get"
	}
	if c.ReadPayload == nil {
		c.ReadPayload = []byte("x")
	}
	if c.UpdateMethod == "" {
		c.UpdateMethod = "Set"
	}
	if c.UpdateKey == "" {
		c.UpdateKey = "x"
	}
	if c.Deadline <= 0 {
		c.Deadline = 50 * time.Millisecond
	}
	if c.ExpireAfter <= 0 {
		c.ExpireAfter = 8 * c.Deadline
		if c.ExpireAfter < time.Second {
			c.ExpireAfter = time.Second
		}
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1 << 16
	}
	if c.FanoutReads <= 0 {
		c.FanoutReads = 1
	}
}

// engineBucketBoundsMS are the latency histogram bounds in milliseconds:
// geometric from 50µs (the frontier fast path's territory) to 5s.
var engineBucketBoundsMS = []float64{
	0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
}

// LatencyHist is a fixed-bucket latency histogram with value semantics:
// snapshots copy, and Sub yields the delta of a measurement window.
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

// Sub returns the histogram of observations recorded after prev was
// snapshotted.
func (h LatencyHist) Sub(prev LatencyHist) LatencyHist {
	var out LatencyHist
	for i := range h.Counts {
		out.Counts[i] = h.Counts[i] - prev.Counts[i]
	}
	return out
}

// EngineMetrics aggregates the engine's accounting. It has value
// semantics; Sub computes a measurement window's delta.
type EngineMetrics struct {
	Issued  uint64 // requests actually transmitted
	Reads   uint64
	Updates uint64
	Shed    uint64 // arrivals dropped by MaxPending or PerClientCap

	Completed   uint64
	ReadsDone   uint64
	UpdatesDone uint64
	Expired     uint64 // pending past ExpireAfter, written off

	// TimingFailures counts reads that completed past Deadline or expired.
	TimingFailures uint64

	ReadLatency   LatencyHist
	UpdateLatency LatencyHist
}

// Sub returns the metrics accumulated after prev was snapshotted.
func (m EngineMetrics) Sub(prev EngineMetrics) EngineMetrics {
	return EngineMetrics{
		Issued:         m.Issued - prev.Issued,
		Reads:          m.Reads - prev.Reads,
		Updates:        m.Updates - prev.Updates,
		Shed:           m.Shed - prev.Shed,
		Completed:      m.Completed - prev.Completed,
		ReadsDone:      m.ReadsDone - prev.ReadsDone,
		UpdatesDone:    m.UpdatesDone - prev.UpdatesDone,
		Expired:        m.Expired - prev.Expired,
		TimingFailures: m.TimingFailures - prev.TimingFailures,
		ReadLatency:    m.ReadLatency.Sub(prev.ReadLatency),
		UpdateLatency:  m.UpdateLatency.Sub(prev.UpdateLatency),
	}
}

// engPending is one in-flight request's accounting state.
type engPending struct {
	t0     time.Time
	client uint32
	shard  int16 // owning shard index; -1 in single-service mode
	read   bool
}

// engShard is the engine's per-shard routing state in multi-shard mode: the
// shard's current sequencer view and its round-robin read cursor — exactly
// the state the single-service engine keeps once, held once per shard.
type engShard struct {
	info        client.ServiceInfo
	sequencer   node.ID
	readTargets []node.ID
	rr          int

	issued    uint64
	completed uint64
}

// Engine is the open-loop load generator; it implements node.Node and is
// registered with the runtime like any other node (it is not deployed by
// core.Deploy — experiments register it beside a deployed service).
type Engine struct {
	cfg EngineConfig
	ctx node.Context

	stack       *group.Stack
	sequencer   node.ID
	readTargets []node.ID
	rr          int // round-robin cursor over readTargets

	// Multi-shard state; empty in single-service mode.
	shards       []engShard
	replicaShard map[node.ID]int

	started  time.Time
	stopped  bool
	nextSeq  uint64
	clientRR uint32 // round-robin attribution cursor over the population

	// outstanding is the per-client in-flight count — the entire state of a
	// simulated client, which is what lets one node stand in for a million
	// of them.
	outstanding []uint16

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

	arrivalN  int // arrivals to issue at the next timer fire (coalescing)
	arrivalFn func()
	sweepFn   func()
}

var _ node.Node = (*Engine)(nil)

// NewEngine creates an engine; register it with the runtime under a unique
// node ID before starting the scheduler.
func NewEngine(cfg EngineConfig) *Engine {
	cfg.setDefaults()
	if cfg.Arrivals == nil {
		panic("workload: EngineConfig.Arrivals is required")
	}
	e := &Engine{
		cfg:         cfg,
		sequencer:   cfg.Service.Sequencer,
		outstanding: make([]uint16, cfg.Clients),
		pending:     make(map[uint64]engPending),
	}
	if len(cfg.Shards) > 0 {
		if cfg.Keys == nil || cfg.ShardOf == nil {
			panic("workload: EngineConfig.Shards requires Keys and ShardOf")
		}
		e.replicaShard = make(map[node.ID]int)
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
	}
	return e
}

// Init implements node.Node.
func (e *Engine) Init(ctx node.Context) {
	e.ctx = ctx
	e.started = ctx.Now()
	e.stack = group.NewStack(ctx, e.cfg.Group, e.deliver)
	e.readTargets = e.cfg.ReadTargets
	if e.readTargets == nil {
		for _, id := range e.cfg.Service.Primaries {
			if id != e.cfg.Service.Sequencer {
				e.readTargets = append(e.readTargets, id)
			}
		}
	}
	e.arrivalFn = e.arrival
	e.sweepFn = e.sweep
	ctx.Post(e.cfg.Arrivals.Gap(ctx.Rand(), 0), e.arrivalFn)
	ctx.Post(e.cfg.ExpireAfter/4, e.sweepFn)
}

// Recv implements node.Node. Everything of interest arrives through the
// substrate; raw messages are dropped.
func (e *Engine) Recv(from node.ID, m node.Message) {
	e.stack.Handle(from, m)
}

// Stop halts the generator: no further arrivals are issued. Pending
// requests still complete or expire. Safe to call between scheduler runs.
func (e *Engine) Stop() { e.stopped = true }

// Metrics returns a snapshot of the engine's accounting (value semantics —
// diff two snapshots with Sub to scope a measurement window). Safe to call
// from outside the engine's goroutine while a live run is in progress.
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
	if e.stopped {
		return
	}
	n := e.arrivalN
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	for i := 0; i < n; i++ {
		e.issue()
		if e.cfg.MaxRequests > 0 && e.m.Issued+e.m.Shed >= e.cfg.MaxRequests {
			e.mu.Unlock()
			e.stopped = true
			return
		}
	}
	e.mu.Unlock()
	// With coalescing off this is exactly one Gap draw and one Post per
	// arrival, the historical schedule; with it on, gaps accumulate until
	// the coalesce span is covered and the count carries to the next fire.
	elapsed := e.ctx.Now().Sub(e.started)
	gap := e.cfg.Arrivals.Gap(e.ctx.Rand(), elapsed)
	count := 1
	for e.cfg.ArrivalCoalesce > 0 && gap < e.cfg.ArrivalCoalesce {
		gap += e.cfg.Arrivals.Gap(e.ctx.Rand(), elapsed)
		count++
	}
	e.arrivalN = count
	e.ctx.Post(gap, e.arrivalFn)
}

func (e *Engine) issue() {
	c := e.clientRR
	e.clientRR = (e.clientRR + 1) % uint32(len(e.outstanding))
	if e.cfg.PerClientCap > 0 && int(e.outstanding[c]) >= e.cfg.PerClientCap {
		e.m.Shed++
		return
	}
	if len(e.pending) >= e.cfg.MaxPending {
		e.m.Shed++
		return
	}
	e.nextSeq++
	id := consistency.RequestID{Client: e.ctx.ID(), Seq: e.nextSeq}
	read := e.ctx.Rand().Float64() < e.cfg.ReadFraction

	// Key and shard resolution: the extra rand draw happens only when Keys
	// is configured, so the historical single-key stream is untouched.
	key := e.cfg.UpdateKey
	if e.cfg.Keys != nil {
		key = e.cfg.Keys.Key(e.ctx.Rand())
	}
	sh := -1
	if len(e.shards) > 0 {
		sh = e.cfg.ShardOf(key)
		e.shards[sh].issued++
	}

	req := consistency.Request{ID: id, ReadOnly: read}
	if read {
		req.Method = e.cfg.ReadMethod
		req.Payload = e.cfg.ReadPayload
		if e.cfg.Keys != nil {
			req.Payload = []byte(key)
		}
		req.Staleness = e.cfg.Staleness
		e.m.Reads++
		// The sequencer orders the read; FanoutReads serving replicas race
		// to answer it.
		if sh < 0 {
			e.stack.Send(e.sequencer, req)
			for i := 0; i < e.cfg.FanoutReads && i < len(e.readTargets); i++ {
				e.stack.Send(e.readTargets[e.rr], req)
				e.rr = (e.rr + 1) % len(e.readTargets)
			}
		} else {
			s := &e.shards[sh]
			e.stack.Send(s.sequencer, req)
			for i := 0; i < e.cfg.FanoutReads && i < len(s.readTargets); i++ {
				e.stack.Send(s.readTargets[s.rr], req)
				s.rr = (s.rr + 1) % len(s.readTargets)
			}
		}
	} else {
		req.Method = e.cfg.UpdateMethod
		// Fresh payload per update: replicas retain the body until commit.
		buf := make([]byte, 0, len(key)+21)
		buf = append(buf, key...)
		buf = append(buf, '=')
		req.Payload = strconv.AppendUint(buf, e.nextSeq, 10)
		e.m.Updates++
		primaries := e.cfg.Service.Primaries
		if sh >= 0 {
			primaries = e.shards[sh].info.Primaries
		}
		for _, p := range primaries {
			e.stack.Send(p, req)
		}
	}
	e.m.Issued++
	e.outstanding[c]++
	e.pending[e.nextSeq] = engPending{t0: e.ctx.Now(), client: c, shard: int16(sh), read: read}
	e.order = append(e.order, e.nextSeq)
}

// sweep expires pending requests older than ExpireAfter, walking the FIFO
// order ring from its head — entries are issued in time order, so the scan
// stops at the first live one.
func (e *Engine) sweep() {
	cutoff := e.ctx.Now().Add(-e.cfg.ExpireAfter)
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
		e.outstanding[p.client]--
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
	again := !e.stopped || len(e.pending) > 0
	e.mu.Unlock()
	if again {
		e.ctx.Post(e.cfg.ExpireAfter/4, e.sweepFn)
	}
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

// setSequencer records a sequencer failover. In multi-shard mode the update
// applies to the announcing replica's shard; announcements from unknown
// senders are ignored rather than cross-wired into another shard.
func (e *Engine) setSequencer(from node.ID, seq node.ID) {
	if len(e.shards) == 0 {
		e.sequencer = seq
		return
	}
	if i, ok := e.replicaShard[from]; ok {
		e.shards[i].sequencer = seq
	}
}

// ShardCounts returns per-shard issued and completed request counts
// (nil outside multi-shard mode) — the skew evidence for hot-shard runs.
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
	e.outstanding[p.client]--
	if p.shard >= 0 {
		e.shards[p.shard].completed++
	}
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
