// Package client implements the client-side AQuA gateway handler of
// Section 5: it intercepts invocations, distinguishes reads from updates
// through the read-only method registry, selects replica subsets with the
// probabilistic model and a pluggable Selector, multicasts requests,
// delivers first replies, maintains the information repository from
// performance broadcasts and piggybacked timings, and detects timing
// failures against the client's QoS specification.
package client

import (
	"time"

	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/repository"
	"aqua/internal/selection"
)

// ServiceInfo is what a client must know about a replicated service.
type ServiceInfo struct {
	// Primaries is the full primary group, including the initial sequencer.
	Primaries []node.ID
	// Secondaries is the secondary group.
	Secondaries []node.ID
	// Sequencer is the initial sequencer (the lowest-ID primary); the
	// client follows failovers via announcements and broadcasts.
	Sequencer node.ID
	// LazyInterval is T_L, used by the staleness model.
	LazyInterval time.Duration
}

// Config describes one client gateway.
type Config struct {
	Service ServiceInfo
	// Spec is this client's QoS specification for read-only requests.
	Spec qos.Spec
	// Methods names the service's read-only methods; anything else is an
	// update.
	Methods *qos.Methods
	// WindowSize is the sliding-window length l (default 20, as in the
	// paper's main experiments).
	WindowSize int
	// BinWidth coarsens pmfs before convolution (default 2ms; 0 keeps the
	// default, negative disables binning).
	BinWidth time.Duration
	// Selector picks replica subsets for reads (default Algorithm 1).
	Selector selection.Selector
	// Group tunes the communication substrate.
	Group group.Config
	// OnBreach is invoked once if the observed timing-failure frequency
	// exceeds 1 − MinProb (the paper's client callback). May be nil.
	OnBreach func(observedFailureRate float64)
	// MaxPending bounds remembered in-flight/completed requests
	// (default 1024). An invocation still unanswered once MaxPending newer
	// ones exist is failed back to the application.
	MaxPending int
	// RetryInterval is how long an in-flight request may go unanswered
	// before the gateway reselects replicas and retransmits it. The
	// default is max(2×Deadline, 500ms). Crashed replicas leave behind
	// attractive-looking histories; retries (with suspicion, below) keep
	// a request from stalling on a fully-dead selection.
	RetryInterval time.Duration
	// MaxRetries bounds retransmissions before the invocation is failed
	// back to the application (default 20).
	MaxRetries int
	// SuspectTimeout is how long a replica may leave requests unanswered
	// before the model treats its recorded history as obsolete (its CDFs
	// evaluate to 0, so it no longer counts toward P_K). Default
	// 2×RetryInterval.
	SuspectTimeout time.Duration
	// CountedEstimator switches the staleness model to the n_L-anchored
	// variant (see selection.Model.CountedEstimator).
	CountedEstimator bool
	// OnSelect, if set, observes every read's initial selection: the model's
	// predicted probability that at least one selected replica answers by
	// the deadline (P_K over the full chosen set), and the set size. Used by
	// the model-calibration experiment.
	OnSelect func(predicted float64, selected int)
	// Obs, when non-nil, receives request counters, the response-time
	// histogram, and the prediction-vs-observed calibration tables. The nil
	// default keeps every per-request path allocation-free.
	Obs *obs.Registry
	// Tracer, when non-nil, receives one JSONL span per completed request.
	Tracer *obs.Tracer
}

func (c *Config) setDefaults() {
	if c.WindowSize <= 0 {
		c.WindowSize = 20
	}
	switch {
	case c.BinWidth == 0:
		c.BinWidth = 2 * time.Millisecond
	case c.BinWidth < 0:
		c.BinWidth = 0
	}
	if c.Selector == nil {
		c.Selector = selection.Algorithm1{}
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 2 * c.Spec.Deadline
		if c.RetryInterval < 500*time.Millisecond {
			c.RetryInterval = 500 * time.Millisecond
		}
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 20
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = 2 * c.RetryInterval
	}
}

// Result reports one completed invocation to the application.
type Result struct {
	Payload []byte
	Err     string
	// ResponseTime is tr = tp − t0.
	ResponseTime time.Duration
	// TimingFailure reports tr > d (reads only).
	TimingFailure bool
	// Selected is the number of serving replicas chosen (reads only;
	// excludes the sequencer).
	Selected int
	// Replica is the gateway whose reply was delivered (the first).
	Replica node.ID
}

// Metrics aggregates a client gateway's observations, read by experiments.
type Metrics struct {
	Reads          int
	Updates        int
	TimingFailures int
	// SelectedTotal sums Selected over all reads (for the Figure 4a
	// average).
	SelectedTotal int
	// Selections counts, per serving replica, how often it was selected.
	Selections map[node.ID]int
}

type pendingReq struct {
	id        consistency.RequestID
	req       consistency.Request
	readOnly  bool
	t0        time.Time // interception
	tm        time.Time // transmission via the substrate
	selected  int
	attempts  int
	done      bool
	cb        func(Result)
	stopRetry node.CancelFunc

	// predicted is the model's P_K(d) over the initial selection, captured
	// only when observability is enabled (hasPred) so the disabled path does
	// no extra float work.
	predicted float64
	hasPred   bool
}

// Gateway is the client-side gateway handler; it implements node.Node.
type Gateway struct {
	cfg Config
	ctx node.Context

	stack *group.Stack
	repo  *repository.Repository
	fd    *qos.FailureDetector
	model selection.Model

	sequencer node.ID
	nextSeq   uint64
	pending   *consistency.Memo[*pendingReq]

	// firstUnanswered records, per replica, when the oldest still
	// unanswered request was sent to it; replicas silent past
	// SuspectTimeout have their model CDFs zeroed.
	firstUnanswered map[node.ID]time.Time

	// evalIn and servingBuf are reused across reads so the selection hot
	// path (model evaluation + Algorithm 1) stays allocation-free; the
	// repository's generation-keyed PMF caches and the model's sort-order
	// cache live behind them.
	evalIn     selection.Input
	servingBuf []node.ID

	metrics Metrics

	// ins holds the resolved observability instruments (all nil no-ops when
	// Config.Obs is nil); obsOn gates the prediction capture shared by
	// metrics and traces.
	ins   instruments
	obsOn bool
}

var _ node.Node = (*Gateway)(nil)

// New creates a client gateway.
func New(cfg Config) *Gateway {
	cfg.setDefaults()
	g := &Gateway{
		cfg:  cfg,
		repo: repository.New(cfg.WindowSize),
		fd:   qos.NewFailureDetector(cfg.Spec, cfg.OnBreach),
		model: selection.Model{
			BinWidth:         cfg.BinWidth,
			LazyInterval:     cfg.Service.LazyInterval,
			CountedEstimator: cfg.CountedEstimator,
		},
		sequencer:       cfg.Service.Sequencer,
		pending:         consistency.NewMemo[*pendingReq](cfg.MaxPending),
		firstUnanswered: make(map[node.ID]time.Time),
		metrics:         Metrics{Selections: make(map[node.ID]int)},
	}
	g.pending.OnEvict = g.evict
	return g
}

// Init implements node.Node.
func (g *Gateway) Init(ctx node.Context) {
	g.ctx = ctx
	g.stack = group.NewStack(ctx, g.cfg.Group, g.handleDelivery)
	g.ins = newInstruments(g.cfg.Obs, ctx.ID(), g.cfg.Service)
	g.obsOn = g.cfg.Obs != nil || g.cfg.Tracer != nil
}

// Recv implements node.Node.
func (g *Gateway) Recv(from node.ID, m node.Message) {
	if g.stack.Handle(from, m) {
		return
	}
	g.ctx.Logf("client: unexpected raw message %T from %s", m, from)
}

func (g *Gateway) handleDelivery(from node.ID, m node.Message) {
	switch msg := m.(type) {
	case consistency.Reply:
		g.onReply(msg)
	case *consistency.Reply:
		// Pointer form from the live transport's shared decoder.
		g.onReply(*msg)
	case consistency.PerfBroadcast:
		g.onPerfBroadcast(msg)
	case consistency.SequencerAnnounce:
		g.sequencer = msg.Sequencer
	default:
		g.onOther(from, m)
	}
}

// Invoke issues a request. It must be called from within this node's
// callbacks (a timer or message handler) — workload drivers wrap the
// gateway and schedule their calls through the node's own timers. cb is
// invoked exactly once: with the first reply, or with an error Result
// after MaxRetries unanswered retransmissions or once MaxPending newer
// invocations evict it unanswered.
func (g *Gateway) Invoke(method string, payload []byte, cb func(Result)) {
	g.invoke(method, payload, g.cfg.Spec.Staleness, cb)
}

// InvokeStale is Invoke with an explicit per-request staleness bound
// overriding the client's Spec (reads only; updates ignore it). A shard
// migration uses staleness 0 to read a key's committed frontier value from
// the old owner regardless of how loose the router's client spec is.
func (g *Gateway) InvokeStale(method string, payload []byte, staleness int, cb func(Result)) {
	g.invoke(method, payload, staleness, cb)
}

func (g *Gateway) invoke(method string, payload []byte, staleness int, cb func(Result)) {
	now := g.ctx.Now()
	g.nextSeq++
	id := consistency.RequestID{Client: g.ctx.ID(), Seq: g.nextSeq}
	readOnly := g.cfg.Methods.IsReadOnly(method)

	req := consistency.Request{
		ID:       id,
		Method:   method,
		Payload:  payload,
		ReadOnly: readOnly,
	}
	if readOnly {
		req.Staleness = staleness
		g.metrics.Reads++
		g.ins.reads.Inc()
	} else {
		g.metrics.Updates++
		g.ins.updates.Inc()
	}
	p := &pendingReq{id: id, req: req, readOnly: readOnly, t0: now, cb: cb}
	g.pending.Put(id, p)
	if !p.done { // an eviction callback's own invocations can evict p
		g.transmit(p)
	}
}

// transmit selects targets and sends one attempt of a pending request,
// arming the retry timer.
func (g *Gateway) transmit(p *pendingReq) {
	now := g.ctx.Now()
	p.attempts++
	if p.attempts > 1 {
		g.ins.retries.Inc()
	}

	var targets []node.ID
	if p.readOnly {
		g.model.EvaluateInto(&g.evalIn, g.repo, g.servingPrimaries(), g.cfg.Service.Secondaries,
			g.sequencer, g.cfg.Spec, now)
		in := &g.evalIn
		g.applySuspicion(in, now)
		targets = g.cfg.Selector.Select(*in)
		if p.attempts == 1 {
			// Figure 4a semantics: count the initial selection only.
			for _, t := range targets {
				if t != g.sequencer {
					p.selected++
					g.metrics.Selections[t]++
				}
			}
			g.metrics.SelectedTotal += p.selected
			if g.cfg.OnSelect != nil {
				g.cfg.OnSelect(predictedPK(*in, targets), p.selected)
			}
			g.ins.selectedTotal.Add(uint64(p.selected))
			if g.obsOn {
				p.predicted = g.observeSelection(in, targets)
				p.hasPred = true
			}
		}
	} else {
		// Updates are multicast to the whole primary group (Section 5):
		// ordering, not selection, governs them.
		targets = g.cfg.Service.Primaries
	}

	p.tm = now
	for _, t := range targets {
		if _, waiting := g.firstUnanswered[t]; !waiting && t != g.sequencer {
			g.firstUnanswered[t] = now
		}
		g.stack.Send(t, p.req)
	}

	p.stopRetry = g.ctx.SetTimer(g.cfg.RetryInterval, func() { g.retry(p) })
}

// retry fires when a request has gone a full RetryInterval unanswered:
// either retransmit with a fresh selection (suspicion may have aged out
// dead replicas by now) or fail the invocation back to the caller.
func (g *Gateway) retry(p *pendingReq) {
	if p.done {
		return
	}
	if p.attempts >= g.cfg.MaxRetries {
		g.fail(p, errNoReply)
		return
	}
	g.transmit(p)
}

// Error strings of invocations failed back to the application unanswered.
const (
	errNoReply = "aqua: no replica responded"
	errEvicted = "aqua: evicted unanswered by MaxPending newer invocations"
)

// fail completes an unanswered invocation with an error Result: reads are
// judged against the deadline like any other outcome, the span is traced,
// and the callback fires.
func (g *Gateway) fail(p *pendingReq, reason string) {
	p.done = true
	res := Result{
		Err:          reason,
		ResponseTime: g.ctx.Now().Sub(p.t0),
		Selected:     p.selected,
	}
	if p.readOnly {
		res.TimingFailure = g.fd.Record(res.ResponseTime)
		if res.TimingFailure {
			g.metrics.TimingFailures++
		}
		if g.obsOn {
			g.observeReadOutcome(p, &res)
		}
	}
	if g.cfg.Tracer != nil {
		g.recordSpan(p, &res, false)
	}
	if p.cb != nil {
		p.cb(res)
	}
}

// applySuspicion zeroes the distribution functions of replicas that have
// left requests unanswered past SuspectTimeout. Their recorded windows are
// obsolete — the paper sizes windows to "eliminate obsolete measurements",
// and a crashed replica's frozen history is the extreme case. The replica
// itself stays selectable (its huge ert sorts it first, so it keeps being
// probed and revives instantly once it answers), but it no longer counts
// toward P_K(d).
func (g *Gateway) applySuspicion(in *selection.Input, now time.Time) {
	changed := false
	for i := range in.Candidates {
		first, waiting := g.firstUnanswered[in.Candidates[i].ID]
		if waiting && now.Sub(first) > g.cfg.SuspectTimeout {
			in.Candidates[i].ImmedCDF = 0
			in.Candidates[i].DelayedCDF = 0
			changed = true
		}
	}
	if changed {
		// The zeroed CDFs can reorder ert ties, so the precomputed sort
		// order no longer applies.
		in.MarkDirty()
	}
}

// evict handles an entry MaxPending newer invocations pushed out of the
// pending memo. One still in flight is failed back, so its callback still
// fires; the memo is consistent before that callback runs, because it may
// invoke again.
func (g *Gateway) evict(_ consistency.RequestID, p *pendingReq) {
	if !p.done {
		if p.stopRetry != nil {
			p.stopRetry()
		}
		g.fail(p, errEvicted)
	}
}

// servingPrimaries returns primary members that can serve reads: everyone
// but the current sequencer. The returned slice aliases a per-gateway
// buffer reused across calls.
func (g *Gateway) servingPrimaries() []node.ID {
	g.servingBuf = g.servingBuf[:0]
	for _, id := range g.cfg.Service.Primaries {
		if id != g.sequencer {
			g.servingBuf = append(g.servingBuf, id)
		}
	}
	return g.servingBuf
}

// onReply processes a replica's response: repository bookkeeping for every
// reply, delivery and timing-failure accounting for the first.
func (g *Gateway) onReply(r consistency.Reply) {
	delete(g.firstUnanswered, r.Replica)
	p, ok := g.pending.Get(r.ID)
	if !ok {
		return // pruned or unknown
	}
	now := g.ctx.Now()

	// tg = tp − tm − t1 (Section 5.4); RecordReply clamps negatives.
	g.repo.RecordReply(r.Replica, now.Sub(p.tm)-r.T1, now)

	// Calibration counts every reply, first or not: the per-replica model
	// predicts whether *this replica* answers within d, independent of who
	// wins the race.
	if p.readOnly {
		if rc := g.ins.perReplica[r.Replica]; rc != nil {
			rc.replies.Inc()
			if now.Sub(p.tm) <= g.cfg.Spec.Deadline {
				rc.timely.Inc()
			}
		}
	}

	if p.done {
		return
	}
	p.done = true
	if p.stopRetry != nil {
		p.stopRetry()
	}

	res := Result{
		Payload:      r.Payload,
		Err:          r.Err,
		ResponseTime: now.Sub(p.t0),
		Selected:     p.selected,
		Replica:      r.Replica,
	}
	if p.readOnly {
		res.TimingFailure = g.fd.Record(res.ResponseTime)
		if res.TimingFailure {
			g.metrics.TimingFailures++
		}
		if g.obsOn {
			g.observeReadOutcome(p, &res)
		}
	}
	if g.cfg.Tracer != nil {
		g.recordSpan(p, &res, r.Deferred)
	}
	if p.cb != nil {
		p.cb(res)
	}
}

// onPerfBroadcast folds a server's published measurements into the
// repository (Section 5.4).
func (g *Gateway) onPerfBroadcast(pb consistency.PerfBroadcast) {
	g.repo.RecordPerf(pb.Replica, pb.TS, pb.TQ)
	if pb.Deferred {
		g.repo.RecordDeferWait(pb.Replica, pb.TB)
	}
	if pb.Sequencer != "" {
		g.sequencer = pb.Sequencer
	}
	if pb.IsPublisher {
		g.repo.RecordPublisherRates(pb.NU, pb.TU)
		g.repo.RecordLazyInfo(pb.NL, pb.TL, g.ctx.Now())
	}
}

func (g *Gateway) onOther(from node.ID, m node.Message) {
	g.ctx.Logf("client: unhandled payload %T from %s", m, from)
}

// Metrics returns a copy of the gateway's aggregate observations.
func (g *Gateway) Metrics() Metrics {
	out := g.metrics
	out.Selections = make(map[node.ID]int, len(g.metrics.Selections))
	for k, v := range g.metrics.Selections {
		out.Selections[k] = v
	}
	return out
}

// FailureRate exposes the timing-failure detector's observed rate.
func (g *Gateway) FailureRate() float64 { return g.fd.FailureRate() }

// Sequencer returns the client's current belief of the sequencer identity.
func (g *Gateway) Sequencer() node.ID { return g.sequencer }

// Repository exposes the information repository (benchmarks seed it
// directly; tests inspect it).
func (g *Gateway) Repository() *repository.Repository { return g.repo }

// predictedPK evaluates the model's success prediction for the chosen set:
// P_K(d) over every selected serving candidate.
func predictedPK(in selection.Input, targets []node.ID) float64 {
	byID := make(map[node.ID]selection.Candidate, len(in.Candidates))
	for _, c := range in.Candidates {
		byID[c.ID] = c
	}
	var chosen []selection.Candidate
	for _, id := range targets {
		if c, ok := byID[id]; ok {
			chosen = append(chosen, c)
		}
	}
	return selection.PK(chosen, in.StaleFactor)
}
