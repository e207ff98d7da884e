package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/selection"
	"aqua/internal/tcpnet"
	"aqua/internal/wal"
)

// cluster is the deployment shim for the live workloads: a core.Runtime that
// gives every replica Register call its own live.Runtime and
// tcpnet.Transport on 127.0.0.1:0 — one "process" per replica inside the
// benchmark process — and puts all client gateways on one client-side
// runtime and transport. After Deploy every transport learns every remote
// node's address, so all replica<->replica and client<->replica traffic
// crosses the binary codec, a per-peer writer, a loopback socket, the
// zero-copy reader and a mailbox. Message delay is loopback only.
type cluster struct {
	w   *workloadSpec
	dir string
	tr  *tracer // nil on an untraced run

	logs       nodeLogSink
	clientHost *host
	hosts      []*host // replica hosts, in Register order
	clients    []*loadClient
	medias     []*wal.FileMedia
	d          *core.Deployment
	err        error // first Register/NewMedia failure (the hooks cannot return one)
	halted     bool
	rateScale  float64 // multiplies the workload's open-loop rate (1 outside tests)
}

// host is one emulated process.
type host struct {
	rt  *live.Runtime
	tr  *tcpnet.Transport
	ids []node.ID
}

// benchCmd is the control message the main goroutine injects to run a
// closure on a client node's goroutine (gateways may only be invoked from
// their own node's callbacks).
type benchCmd struct{ fn func() }

// clientNode is a client gateway plus its load driver as one node: Init
// hands the driver the node context, benchCmd runs a control closure, and
// everything else goes to the gateway (or its trace wrapper) untouched.
type clientNode struct {
	gw node.Node
	lc *loadClient
}

func (c *clientNode) Init(ctx node.Context) {
	c.gw.Init(ctx)
	c.lc.ctx = ctx
}

func (c *clientNode) Recv(from node.ID, m node.Message) {
	if cmd, ok := m.(*benchCmd); ok {
		cmd.fn()
		return
	}
	c.gw.Recv(from, m)
}

// clientMaxPending replaces client.Config's default of 1024. The gateway
// forgets an in-flight invocation — without ever calling its callback — once
// that many newer ones have been issued, which at tens of thousands of
// invocations a second is a stall of a few tens of milliseconds.
// core.ClientConfig does not expose the field, so the benchmark renders its
// client configs with core.ClientGatewayConfig and builds the gateways
// itself.
const clientMaxPending = 1 << 13

// nClients is the number of client gateways: at most nproc, because each is
// one generator goroutine and the generator must not outnumber the cores.
func nClients() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// nodeLogSink keeps what the nodes themselves logged (takeovers, recovery
// pulls, a WAL failure wedging a replica, the group layer giving up on a
// message) until the deployment is halted, so that a run that failed can say
// what the program saw. Healthy runs log a line or two.
type nodeLogSink struct {
	mu     sync.Mutex
	t0     time.Time
	closed bool
	lines  []string
}

const nodeLogMax = 40

func (s *nodeLogSink) Write(b []byte) (int, error) {
	s.mu.Lock()
	if !s.closed && len(s.lines) < nodeLogMax {
		s.lines = append(s.lines, fmt.Sprintf("+%.3fs %s", time.Since(s.t0).Seconds(), strings.TrimSpace(string(b))))
	}
	s.mu.Unlock()
	return len(b), nil
}

// close stops recording: teardown makes the group layer complain about
// peers that are already gone. Once the runtimes have stopped, lines is safe
// to read.
func (s *nodeLogSink) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (c *cluster) newHost() (*host, error) {
	rt := live.NewRuntime(live.WithLog(&c.logs))
	t, err := tcpnet.New(rt, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	send := live.RemoteSender(t.Send)
	if c.tr != nil {
		t.Instrument(c.tr.reg)
		send = c.tr.wrapSender(send)
	}
	rt.SetRemote(send)
	return &host{rt: rt, tr: t}, nil
}

// roleOf names a node's role from its deployment-generated ID: p00 is the
// initial sequencer (no live workload injects a fault, so it stays one).
func roleOf(id node.ID) string {
	switch {
	case id == "p00":
		return "sequencer"
	case strings.HasPrefix(string(id), "p"):
		return "primary"
	case strings.HasPrefix(string(id), "s"):
		return "secondary"
	}
	return "client"
}

// Register implements core.Runtime.
func (c *cluster) Register(id node.ID, n node.Node) {
	if c.err != nil {
		return
	}
	role := roleOf(id)
	h := c.clientHost
	if role != "client" || h == nil {
		var err error
		if h, err = c.newHost(); err != nil {
			c.err = fmt.Errorf("host for %s: %w", id, err)
			return
		}
		if role == "client" {
			c.clientHost = h
		} else {
			c.hosts = append(c.hosts, h)
		}
	}
	if c.tr != nil {
		if cn, ok := n.(*clientNode); ok {
			cn.gw = c.tr.wrapNode(id, role, cn.gw)
		} else {
			n = c.tr.wrapNode(id, role, n)
		}
	}
	h.ids = append(h.ids, id)
	h.rt.Register(id, n)
}

// deploy stands the workload's service up and starts it. The returned
// cluster must be torn down with stop.
func deploy(w *workloadSpec, seed int64, tr *tracer) (*cluster, error) {
	dir, err := makeRunDir(w.Name)
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, dir: dir, tr: tr}
	c.logs.t0 = time.Now()

	svc := core.ServiceConfig{
		Primaries:         3, // sequencer + 2 serving primaries
		Secondaries:       w.Secondaries,
		LazyInterval:      lazyInterval,
		Group:             group.DefaultConfig(),
		NewApp:            func() app.Application { return apps.NewKVStore() },
		AssignBatch:       assignBatch,
		AssignBatchWindow: assignBatchWindow,
		FastReads:         true,
		ChaseInterval:     chaseInterval,
		Durable:           w.Durable,
		ReplicatedAssign:  w.Durable,
		// ServiceConfig.Tracer stays nil on purpose: it disables the
		// fast-read path and would change the code path under test.
	}
	if w.Durable {
		svc.NewMedia = func(id node.ID) (wal.Media, error) {
			fm, err := wal.NewFileMedia(filepath.Join(dir, string(id)))
			if err != nil {
				if c.err == nil {
					c.err = err
				}
				return nil, err
			}
			c.medias = append(c.medias, fm)
			if tr != nil {
				return tr.wrapMedia(id, fm), nil
			}
			return fm, nil
		}
	}
	if tr != nil {
		tr.instrumentService(&svc)
	}

	n := nClients()
	for i := 0; i < n; i++ {
		lc := newLoadClient(i, n, w, seed)
		c.clients = append(c.clients, lc)
		svc.ExtraClients = append(svc.ExtraClients, lc.id)
	}
	d, err := core.Deploy(c, svc, nil)
	if err == nil {
		err = c.err
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("deploy %s: %w", w.Name, err)
	}
	c.d = d
	for _, lc := range c.clients {
		cc := core.ClientConfig{
			ID:      lc.id,
			Spec:    qos.Spec{Staleness: w.Staleness, Deadline: readDeadline, MinProb: readMinProb},
			Methods: qos.NewMethods("Get", "Version"),
		}
		if tr != nil {
			lc.tr = tr
			lc.sel = &tracedSelector{inner: selection.Algorithm1{}}
			cc.Selector = lc.sel
		}
		cfg := core.ClientGatewayConfig(svc, cc)
		cfg.Service = d.Info
		cfg.MaxPending = clientMaxPending
		lc.gw = client.New(cfg)
		c.Register(lc.id, &clientNode{gw: lc.gw, lc: lc})
		if tr != nil {
			lc.log = tr.logs[lc.id]
		}
	}
	if c.err != nil {
		c.stop()
		return nil, fmt.Errorf("deploy %s: %w", w.Name, c.err)
	}

	// Full mesh: every transport learns where every remote node listens.
	all := append([]*host{c.clientHost}, c.hosts...)
	for _, h := range all {
		for _, g := range all {
			if g == h {
				continue
			}
			for _, id := range g.ids {
				h.tr.AddPeer(id, g.tr.Addr())
			}
		}
	}
	for _, h := range c.hosts {
		h.rt.Start()
	}
	c.clientHost.rt.Start()
	return c, nil
}

// stop tears the deployment down: client side first so no new requests are
// in flight, then every replica process, their sockets and their files. It
// returns once every goroutine the deployment started has exited, which is
// what lets the caller read decorator state without locks afterwards.
func (c *cluster) stop() {
	c.halt()
	os.RemoveAll(c.dir)
}

// halt stops every process but leaves the WAL files in place.
func (c *cluster) halt() {
	if c.halted {
		return
	}
	c.halted = true
	c.logs.close()
	if c.clientHost != nil {
		c.clientHost.rt.Stop()
	}
	for _, h := range c.hosts {
		h.rt.Stop()
	}
	if c.clientHost != nil {
		c.clientHost.tr.Close()
	}
	for _, h := range c.hosts {
		h.tr.Close()
	}
	for _, m := range c.medias {
		m.Close()
	}
}

// runPhase runs a copy of the phase shape on every client concurrently and
// returns their results. A phase that has not finished long after its
// nominal duration means the service stopped answering; that is reported,
// not waited out.
func (c *cluster) runPhase(shape phase) ([]phaseResult, error) {
	phases := make([]*phase, len(c.clients))
	for i, lc := range c.clients {
		ph := shape
		ph.done = make(chan struct{})
		phases[i] = &ph
		lc := lc
		c.clientHost.rt.Inject("bench", lc.id, &benchCmd{fn: func() { lc.begin(&ph) }})
	}
	const grace = 60 * time.Second
	timeout := time.After(shape.dur + grace)
	out := make([]phaseResult, len(phases))
	for i, ph := range phases {
		select {
		case <-ph.done:
			out[i] = ph.res
		case <-timeout:
			return nil, fmt.Errorf("%s: phase stalled: client %s still unfinished %v after its end",
				c.w.Name, c.clients[i].id, grace)
		}
	}
	return out, nil
}
