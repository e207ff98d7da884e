package main

import (
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/app"
	"aqua/internal/check"
	"aqua/internal/consistency"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/selection"
	"aqua/internal/wal"
)

// Tracing from the outside. A traced run wraps decorators around the
// program's public seams — core.Runtime.Register (a node.Node wrapper),
// live.RemoteSender, wal.Media, app.Application, selection.Selector,
// obs.Registry and tcpnet.Transport.Instrument — and changes nothing inside
// it. All emulated processes share this process's monotonic clock, so a
// message's send call and its Recv entry on another node are directly
// comparable. Decorators append to per-node logs owned by that node's
// goroutine; nothing is read until every runtime has stopped.

// evKind is what happened; msgKind which protocol message it concerned.
type evKind uint8

const (
	evSend        evKind = iota + 1 // RemoteSender call: the message leaves its node
	evRecv                          // Recv entry on the destination node
	evClientDue                     // open-loop due time of a sampled request
	evInvokeStart                   // Gateway.Invoke entered
	evSelect                        // selection.Selector.Select inside that Invoke (at..end)
	evClientDone                    // the invocation callback ran
)

type msgKind uint8

const (
	mkOther msgKind = iota
	mkRequest
	mkReply
	mkAssignBatch // GSNAssignBatch, and singleton GSNAssign as a batch of one
	mkAssignAck
	mkOrderCommit
	mkStateUpdate
	mkAck
	mkHeartbeat
	mkCount
)

var msgKindName = [mkCount]string{"other", "request", "reply", "assign_batch", "assign_ack",
	"order_commit", "state_update", "ack", "heartbeat"}

// event is one log entry. at/end are nanoseconds since the tracer's epoch.
type event struct {
	at   int64
	end  int64 // evSelect only
	kind evKind
	msg  msgKind
	read bool
	gsn  uint64                // request GSN, ack Frontier, commit Floor, state-update CSN
	id   consistency.RequestID // zero for ack, commit and state-update events
	peer node.ID               // send: destination; recv: source; done: replying replica
}

// opSpan is one timed call into a layer (a WAL media operation or an
// application call), kept so a stage's self time can subtract its children.
type opSpan struct {
	name       string
	start, end int64
}

type hopStamp struct {
	peer     node.ID
	gen, seq uint64
	at       int64
}

type linkState struct{ gen, maxSeq uint64 }

// hopSampleEvery thins the per-message hop stamps: one DataMsg in N, chosen
// by link sequence number so sender and receiver pick the same ones.
const hopSampleEvery = 8

// nodeLog is one node's decorator state. Only the node's own goroutine
// writes it (Recv, timers, its RemoteSender calls, its WAL and application
// calls all run there).
type nodeLog struct {
	tr   *tracer
	id   node.ID
	role string

	events []event
	walOps []opSpan
	appOps []opSpan

	recvN      uint64
	busyNS     int64
	recvUS     [mkCount][]float32
	dataN      uint64
	ackN       uint64
	hbN        uint64
	retransN   uint64
	lazyBytes  uint64
	sendCalls  uint64
	enqueueNS  []float32
	hopSends   []hopStamp
	hopRecvs   []hopStamp
	links      map[node.ID]*linkState
	appReadUS  []float32
	walAppends uint64
	walBytes   uint64
	walBusyNS  int64
}

func (l *nodeLog) at(t time.Time) int64 { return int64(t.Sub(l.tr.epoch)) }

func (l *nodeLog) add(e event) { l.events = append(l.events, e) }

func sampledID(id consistency.RequestID) bool { return id.Seq%traceSampleEvery == 0 }

// note records one message crossing this node's boundary and returns its
// kind. Both value and pointer forms occur: the sender hands values to the
// RemoteSender, the transport's shared decoder delivers pointers.
func (l *nodeLog) note(dir evKind, peer node.ID, m node.Message, at int64, armed bool) msgKind {
	payload := m
	switch v := m.(type) {
	case group.DataMsg:
		l.noteData(dir, peer, v.Gen, v.Seq, at, armed)
		payload = v.Payload
	case *group.DataMsg:
		l.noteData(dir, peer, v.Gen, v.Seq, at, armed)
		payload = v.Payload
	case group.AckMsg, *group.AckMsg:
		if armed && dir == evSend {
			l.ackN++
		}
		return mkAck
	case group.HeartbeatMsg, *group.HeartbeatMsg:
		if armed && dir == evSend {
			l.hbN++
		}
		return mkHeartbeat
	}
	switch p := payload.(type) {
	case consistency.Request:
		l.noteID(dir, mkRequest, peer, p.ID, 0, p.ReadOnly, at, armed)
		return mkRequest
	case *consistency.Request:
		l.noteID(dir, mkRequest, peer, p.ID, 0, p.ReadOnly, at, armed)
		return mkRequest
	case consistency.Reply:
		l.noteID(dir, mkReply, peer, p.ID, 0, false, at, armed)
		return mkReply
	case *consistency.Reply:
		l.noteID(dir, mkReply, peer, p.ID, 0, false, at, armed)
		return mkReply
	case consistency.GSNAssignBatch:
		l.noteBatch(dir, peer, &p, at, armed)
		return mkAssignBatch
	case *consistency.GSNAssignBatch:
		l.noteBatch(dir, peer, p, at, armed)
		return mkAssignBatch
	case consistency.GSNAssign:
		l.noteAssign(dir, peer, p, at, armed)
		return mkAssignBatch
	case *consistency.GSNAssign:
		l.noteAssign(dir, peer, *p, at, armed)
		return mkAssignBatch
	case consistency.AssignAck:
		if armed {
			l.add(event{at: at, kind: dir, msg: mkAssignAck, gsn: p.Frontier, peer: peer})
		}
		return mkAssignAck
	case consistency.OrderCommit:
		if armed {
			l.add(event{at: at, kind: dir, msg: mkOrderCommit, gsn: p.Floor, peer: peer})
		}
		return mkOrderCommit
	case consistency.StateUpdate:
		l.noteStateUpdate(dir, peer, p.CSN, len(p.Snapshot), at, armed)
		return mkStateUpdate
	case *consistency.StateUpdate:
		l.noteStateUpdate(dir, peer, p.CSN, len(p.Snapshot), at, armed)
		return mkStateUpdate
	}
	return mkOther
}

// noteData keeps the link's highest sequence number (a send at or below it
// is a retransmission) and stamps one DataMsg in hopSampleEvery.
func (l *nodeLog) noteData(dir evKind, peer node.ID, gen, seq uint64, at int64, armed bool) {
	if dir == evRecv {
		if armed && seq%hopSampleEvery == 0 {
			l.hopRecvs = append(l.hopRecvs, hopStamp{peer: peer, gen: gen, seq: seq, at: at})
		}
		return
	}
	ls := l.links[peer]
	if ls == nil {
		ls = &linkState{}
		l.links[peer] = ls
	}
	retransmit := gen < ls.gen || (gen == ls.gen && seq <= ls.maxSeq)
	if gen > ls.gen {
		ls.gen, ls.maxSeq = gen, 0
	}
	if gen == ls.gen && seq > ls.maxSeq {
		ls.maxSeq = seq
	}
	if !armed {
		return
	}
	l.dataN++
	if retransmit {
		l.retransN++
	} else if seq%hopSampleEvery == 0 {
		l.hopSends = append(l.hopSends, hopStamp{peer: peer, gen: gen, seq: seq, at: at})
	}
}

func (l *nodeLog) noteID(dir evKind, mk msgKind, peer node.ID, id consistency.RequestID, gsn uint64, read bool, at int64, armed bool) {
	if armed && sampledID(id) {
		l.add(event{at: at, kind: dir, msg: mk, id: id, gsn: gsn, read: read, peer: peer})
	}
}

func (l *nodeLog) noteBatch(dir evKind, peer node.ID, b *consistency.GSNAssignBatch, at int64, armed bool) {
	if !armed {
		return
	}
	for i, id := range b.Updates {
		l.noteID(dir, mkAssignBatch, peer, id, b.First+uint64(i), false, at, true)
	}
	for _, id := range b.Reads {
		l.noteID(dir, mkAssignBatch, peer, id, b.ReadGSN, true, at, true)
	}
}

func (l *nodeLog) noteAssign(dir evKind, peer node.ID, a consistency.GSNAssign, at int64, armed bool) {
	if !armed {
		return
	}
	l.noteID(dir, mkAssignBatch, peer, a.ID, a.GSN, !a.Update, at, true)
}

func (l *nodeLog) noteStateUpdate(dir evKind, peer node.ID, csn uint64, bytes int, at int64, armed bool) {
	if !armed {
		return
	}
	if dir == evSend {
		l.lazyBytes += uint64(bytes)
	}
	l.add(event{at: at, kind: dir, msg: mkStateUpdate, gsn: csn, peer: peer})
}

// tracer owns a traced run's decorators.
type tracer struct {
	epoch time.Time
	armed atomic.Bool // decorators record only inside the measured window
	reg   *obs.Registry
	rec   *liveRecorder

	logs      map[node.ID]*nodeLog // filled during Deploy, read-only once nodes run
	order     []*nodeLog
	primaries []*shadowMedia // journals of the primary group's media, for the durability audit
	lastApp   *tracedApp     // bound to the next replica Register (Deploy builds app, then registers)

	armedAt, disarmedAt time.Time
	regBase             map[string]float64 // registry totals when the window opened

	auditMu sync.Mutex
	audits  []auditSample
}

func newTracer() *tracer {
	tr := &tracer{
		epoch: time.Now(),
		reg:   obs.NewRegistry(),
		logs:  make(map[node.ID]*nodeLog),
	}
	tr.rec = &liveRecorder{rec: check.NewRecorder(tr.epoch, time.Now)}
	return tr
}

func (tr *tracer) arm() {
	tr.regBase = tr.regTotals()
	tr.armedAt = time.Now()
	tr.armed.Store(true)
}

func (tr *tracer) disarm() { tr.armed.Store(false); tr.disarmedAt = time.Now() }

func (tr *tracer) logFor(id node.ID, role string) *nodeLog {
	l := tr.logs[id]
	if l == nil {
		l = &nodeLog{tr: tr, id: id, role: role, links: make(map[node.ID]*linkState)}
		tr.logs[id] = l
		tr.order = append(tr.order, l)
	}
	return l
}

// instrumentService attaches the observation hooks the program already
// exposes: the oracle recorder, the metrics registry and a timed
// application. ServiceConfig.Tracer is deliberately left nil.
func (tr *tracer) instrumentService(svc *core.ServiceConfig) {
	svc.OnApply = tr.rec.apply
	svc.OnServeRead = tr.rec.serveRead
	svc.OnRestore = tr.rec.restore
	svc.OnRecover = tr.rec.recover
	svc.Obs = tr.reg
	newApp := svc.NewApp
	svc.NewApp = func() app.Application {
		tr.lastApp = &tracedApp{inner: newApp(), tr: tr}
		return tr.lastApp
	}
}

// tracedNode times every Recv and hands the node a context whose timers are
// timed too, so busy time covers all of the node's callbacks.
type tracedNode struct {
	inner node.Node
	log   *nodeLog
}

func (tr *tracer) wrapNode(id node.ID, role string, n node.Node) node.Node {
	l := tr.logFor(id, role)
	if role != "client" && tr.lastApp != nil {
		tr.lastApp.log = l
		tr.lastApp = nil
	}
	return &tracedNode{inner: n, log: l}
}

func (t *tracedNode) Init(ctx node.Context) {
	t.inner.Init(&tracedCtx{Context: ctx, log: t.log})
}

func (t *tracedNode) Recv(from node.ID, m node.Message) {
	armed := t.log.tr.armed.Load()
	t0 := time.Now()
	mk := t.log.note(evRecv, from, m, t.log.at(t0), armed)
	t.inner.Recv(from, m)
	if armed {
		d := time.Since(t0)
		t.log.recvN++
		t.log.busyNS += int64(d)
		t.log.recvUS[mk] = append(t.log.recvUS[mk], float32(d)/1e3)
	}
}

type tracedCtx struct {
	node.Context
	log *nodeLog
}

func (c *tracedCtx) timed(f func()) func() {
	return func() {
		if !c.log.tr.armed.Load() {
			f()
			return
		}
		t0 := time.Now()
		f()
		c.log.busyNS += int64(time.Since(t0))
	}
}

func (c *tracedCtx) Post(d time.Duration, f func()) { c.Context.Post(d, c.timed(f)) }

func (c *tracedCtx) SetTimer(d time.Duration, f func()) node.CancelFunc {
	return c.Context.SetTimer(d, c.timed(f))
}

// wrapSender decorates a runtime's RemoteSender: every message leaving a
// node of that runtime is stamped before it is handed to the transport.
func (tr *tracer) wrapSender(inner live.RemoteSender) live.RemoteSender {
	return func(from, to node.ID, m node.Message) {
		l := tr.logs[from]
		if l == nil { // not a deployed node; nothing to attribute it to
			inner(from, to, m)
			return
		}
		armed := tr.armed.Load()
		t0 := time.Now()
		l.note(evSend, to, m, l.at(t0), armed)
		inner(from, to, m)
		if armed {
			l.sendCalls++
			if l.sendCalls%hopSampleEvery == 0 {
				l.enqueueNS = append(l.enqueueNS, float32(time.Since(t0)))
			}
		}
	}
}

// tracedApp times the replicated application. Its log is bound when the
// replica that owns it registers.
type tracedApp struct {
	inner app.Application
	tr    *tracer
	log   *nodeLog
}

func (a *tracedApp) span(name string, t0 time.Time) {
	if a.log == nil || !a.tr.armed.Load() {
		return
	}
	a.log.appOps = append(a.log.appOps, opSpan{name: name, start: a.log.at(t0), end: a.log.at(time.Now())})
}

func (a *tracedApp) ApplyUpdate(method string, payload []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := a.inner.ApplyUpdate(method, payload)
	a.span("apps.apply", t0)
	return out, err
}

func (a *tracedApp) Read(method string, payload []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := a.inner.Read(method, payload)
	if a.log != nil && a.tr.armed.Load() {
		a.log.appReadUS = append(a.log.appReadUS, float32(time.Since(t0))/1e3)
	}
	return out, err
}

func (a *tracedApp) Snapshot() ([]byte, error) {
	t0 := time.Now()
	out, err := a.inner.Snapshot()
	a.span("apps.snapshot", t0)
	return out, err
}

func (a *tracedApp) Restore(snapshot []byte) error {
	t0 := time.Now()
	err := a.inner.Restore(snapshot)
	a.span("apps.restore", t0)
	return err
}

// tracedSelector times Algorithm 1 and keeps the model's prediction for the
// set it chose, which the load client pairs with the read's outcome.
type tracedSelector struct {
	inner selection.Selector

	lastPK             float64
	lastStart, lastEnd time.Time
	selectUS           []float32
	candidates         uint64
	calls              uint64
}

func (s *tracedSelector) Name() string { return s.inner.Name() }

func (s *tracedSelector) Select(in selection.Input) []node.ID {
	t0 := time.Now()
	out := s.inner.Select(in)
	t1 := time.Now()
	s.lastStart, s.lastEnd = t0, t1
	s.lastPK = selection.PKOf(&in, out)
	s.selectUS = append(s.selectUS, float32(t1.Sub(t0))/1e3)
	s.candidates += uint64(len(in.Candidates))
	s.calls++
	return out
}

// liveRecorder serialises the replicas' observation hooks — each runs on
// its own node's goroutine — into one check.Recorder.
type liveRecorder struct {
	mu  sync.Mutex
	rec *check.Recorder
}

func (r *liveRecorder) apply(replica node.ID, gsn uint64, id consistency.RequestID) {
	r.mu.Lock()
	r.rec.Apply(replica, gsn, id)
	r.mu.Unlock()
}

func (r *liveRecorder) serveRead(replica node.ID, id consistency.RequestID, gsn, csn uint64, staleness int, deferred bool) {
	r.mu.Lock()
	r.rec.ServeRead(replica, id, gsn, csn, staleness, deferred)
	r.mu.Unlock()
}

func (r *liveRecorder) restore(replica node.ID, csn uint64) {
	r.mu.Lock()
	r.rec.Restore(replica, csn)
	r.mu.Unlock()
}

func (r *liveRecorder) recover(replica node.ID, csn uint64) {
	r.mu.Lock()
	r.rec.Recover(replica, csn)
	r.mu.Unlock()
}

func (r *liveRecorder) clientResult(c node.ID, seq uint64, readOnly, failed bool) {
	r.mu.Lock()
	r.rec.ClientResult(c, seq, readOnly, failed)
	r.mu.Unlock()
}

// wrapMedia puts the timing decorator and the durability-audit shadow
// around a replica's media.
func (tr *tracer) wrapMedia(id node.ID, inner wal.Media) wal.Media {
	role := roleOf(id)
	sm := &shadowMedia{inner: inner, id: id, log: tr.logFor(id, role)}
	if role != "secondary" {
		tr.primaries = append(tr.primaries, sm) // the audit's majority is of the primary group
	}
	return sm
}
