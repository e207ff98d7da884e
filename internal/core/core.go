// Package core is the framework's top-level API: it deploys a replicated
// service — sequencer, primary group, secondary group, lazy publisher, and
// client gateways with QoS specifications — onto any runtime (the
// deterministic simulator or the live goroutine runtime), mirroring the
// replica organization of Figure 1.
//
// It also hosts the paper's Section 7 extensions: admission control and the
// priority-to-probability mapping.
package core

import (
	"errors"
	"fmt"
	"time"

	"aqua/internal/app"
	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/replica"
	"aqua/internal/selection"
	"aqua/internal/wal"
)

// Runtime is the minimal registration surface both runtimes expose.
type Runtime interface {
	Register(id node.ID, n node.Node)
}

// ServiceConfig describes a replicated service deployment.
type ServiceConfig struct {
	// NodePrefix prefixes every generated replica ID ("sh1-" turns p00
	// into sh1-p00), letting several deployments share one runtime without
	// colliding node IDs. The empty prefix keeps the historical IDs —
	// and, because per-node rand streams derive from node IDs, keeps every
	// existing single-deployment run byte-identical.
	NodePrefix string
	// Primaries is the primary group size, including the sequencer.
	// Must be at least 2 (the sequencer never serves requests).
	Primaries int
	// Secondaries is the secondary group size.
	Secondaries int
	// LazyInterval is T_L.
	LazyInterval time.Duration
	// ServiceDelay simulates background load per request (nil for none).
	ServiceDelay replica.DelayModel
	// Group tunes the communication substrate for replicas.
	Group group.Config
	// NewApp builds one application instance per replica.
	NewApp func() app.Application
	// ChaseInterval tunes failover handling (0 = default).
	ChaseInterval time.Duration
	// AssignBatch/AssignBatchWindow size the sequencer's assignment window
	// (one GSNAssignBatch broadcast per window). <= 1 is a window of one,
	// the paper's per-request protocol. Update chases join the window too,
	// so with AssignBatch > 1 a chase reply can wait up to
	// AssignBatchWindow. On the live runtime a window also leaves at every
	// drain of the sequencer's mailbox. See replica.Config.
	AssignBatch       int
	AssignBatchWindow time.Duration
	// FastReads enables the replicas' frontier read fast path.
	FastReads bool
	// Durable equips every replica with a write-ahead log plus periodic
	// snapshots (package wal). A replica restarted with recovery (see
	// Deployment.NewRecoveredReplicaGateway) replays its durable state at
	// Init instead of re-fetching history through the sync protocol.
	Durable bool
	// SnapshotEvery, when positive, is the WAL compaction threshold in log
	// records. 0 selects the default rule: at least 256 records and at
	// least as many log bytes as the snapshot cell being replaced. See
	// replica.Config.
	SnapshotEvery int
	// ReplicatedAssign enables majority-floor replicated GSN ordering in
	// the primary group: commits release only once a majority holds their
	// assignments, so sequencer death leaves no assignment holes. See
	// replica.Config.ReplicatedAssign.
	ReplicatedAssign bool
	// NewMedia overrides the per-replica durable media (file-backed for a
	// live deployment). Nil uses an in-memory registry owned by the
	// Deployment, which survives simulated restarts. Consulted only when
	// Durable is set.
	NewMedia func(id node.ID) (wal.Media, error)
	// OnRecover, if set, observes every durable recovery with the replayed
	// commit frontier. Feeds the recovery-frontier chaos oracle.
	OnRecover func(replica node.ID, csn uint64)
	// ExtraClients names client nodes the replicas must treat as clients
	// (perf broadcasts, sequencer announcements) even though Deploy does
	// not instantiate them — the hosts of shard routers and other
	// self-registered request sources. Appended to the deployed clients.
	ExtraClients []node.ID
	// OnApply, if set, observes every (replica, gsn, request) application —
	// the ordering-invariant hook used by the protocol fuzzer.
	OnApply func(replica node.ID, gsn uint64, id consistency.RequestID)
	// OnServeRead, if set, observes every served read: the read's order GSN,
	// the replica's CSN at serve time, the client's staleness bound, and
	// whether the read was deferred. Feeds the chaos invariant oracles.
	OnServeRead func(replica node.ID, id consistency.RequestID, gsn, csn uint64, staleness int, deferred bool)
	// OnRestore, if set, observes every state snapshot a replica restores
	// (lazy update or recovery), with the snapshot's CSN.
	OnRestore func(replica node.ID, csn uint64)
	// Obs, when non-nil, receives metrics from every deployed gateway
	// (replicas and — unless overridden per client — clients). Nil keeps the
	// whole deployment's request paths allocation-free.
	Obs *obs.Registry
	// Tracer, when non-nil, receives per-request trace spans from every
	// deployed gateway.
	Tracer *obs.Tracer
}

// ClientConfig describes one client gateway and its workload driver.
type ClientConfig struct {
	ID   node.ID
	Spec qos.Spec
	// Methods names the service's read-only methods.
	Methods *qos.Methods
	// Selector defaults to the paper's Algorithm 1.
	Selector selection.Selector
	// WindowSize is the repository sliding-window length l (default 20).
	WindowSize int
	// BinWidth coarsens model pmfs (0 = default 2ms, negative = none).
	BinWidth time.Duration
	// Group tunes the client's substrate (heartbeats are unnecessary for
	// clients; the zero value disables them but keeps retransmission on
	// via DefaultsForClient).
	Group *group.Config
	// OnBreach is the QoS-violation callback.
	OnBreach func(float64)
	// CountedEstimator selects the n_L-anchored staleness estimator.
	CountedEstimator bool
	// OnSelect observes every read's predicted success probability and
	// selection size (model-calibration experiments).
	OnSelect func(predicted float64, selected int)
	// RetryInterval/MaxRetries tune the client's retransmission machinery
	// (0 = defaults). Experiments without failure injection set a very
	// large interval: the paper's clients never retransmit, and retries
	// would mask the deferred-read latency tail the evaluation measures.
	RetryInterval time.Duration
	MaxRetries    int
	// MaxPending bounds the requests the client remembers, answered or
	// not (0 = the client default, 1024). See client.Config.
	MaxPending int
	// Driver, if set, runs once at Init in the client's node context —
	// the workload generator's entry point.
	Driver func(ctx node.Context, gw *client.Gateway)
	// Obs and Tracer override the ServiceConfig-level observability sinks
	// for this client (nil inherits the service's).
	Obs    *obs.Registry
	Tracer *obs.Tracer
}

// Deployment is a wired service: every gateway, addressed by node ID.
type Deployment struct {
	// Sequencer is the initial sequencer (leader of the primary group).
	Sequencer node.ID
	// PrimaryGroup lists all primary members, sequencer included.
	PrimaryGroup []node.ID
	// ServingPrimaries lists primaries that answer requests (no sequencer).
	ServingPrimaries []node.ID
	// Secondaries lists the secondary group.
	Secondaries []node.ID
	// ClientIDs lists client gateways in deployment order.
	ClientIDs []node.ID

	Replicas map[node.ID]*replica.Gateway
	Clients  map[node.ID]*client.Gateway

	// Media is the per-replica durable state when Durable is on without a
	// NewMedia override. It outlives gateway incarnations — that is what
	// makes simulated recovery possible — and adversarial tests reach in
	// to plant corruption between incarnations.
	Media *wal.Registry

	// Info is what each client was told about the service.
	Info client.ServiceInfo

	svc     ServiceConfig
	clients []ClientConfig
}

// roleOf reports whether id is a primary of this deployment, or an error if
// it is not a replica at all.
func (d *Deployment) roleOf(id node.ID) (bool, error) {
	for _, p := range d.PrimaryGroup {
		if p == id {
			return true, nil
		}
	}
	for _, s := range d.Secondaries {
		if s == id {
			return false, nil
		}
	}
	return false, fmt.Errorf("core: %q is not a replica of this deployment", id)
}

// durableStore builds id's WAL store over its media (nil when durability is
// off). Each gateway incarnation gets a fresh Store; the media underneath
// persists or not depending on the restart flavor.
func (d *Deployment) durableStore(id node.ID) (*wal.Store, error) {
	if !d.svc.Durable {
		return nil, nil
	}
	if d.svc.NewMedia != nil {
		m, err := d.svc.NewMedia(id)
		if err != nil {
			return nil, fmt.Errorf("core: media for %s: %w", id, err)
		}
		return wal.NewStore(m), nil
	}
	return wal.NewStore(d.Media.Get(id)), nil
}

// NewReplicaGateway builds a fresh gateway for a deployed replica ID — the
// replacement instance for a process restart with total state loss (pass it
// to the runtime's Restart). Only the in-memory registry the Deployment owns
// (Durable without NewMedia) is wiped — this restart flavor models losing
// the disk with the process. With NewMedia set nothing is wiped: the new
// instance gets whatever NewMedia returns for id and recovers from any
// durable state on it. Without durable state it recovers through the
// replica recovery protocol (startup SyncRequest, commit-gap chase).
func (d *Deployment) NewReplicaGateway(id node.ID) (*replica.Gateway, error) {
	if d.Media != nil {
		d.Media.Wipe(id)
	}
	return d.newReplica(id)
}

// NewRecoveredReplicaGateway builds a replacement gateway that keeps id's
// durable media: at Init it replays snapshot + WAL suffix back to the
// pre-crash commit frontier instead of re-fetching history from peers.
// Requires ServiceConfig.Durable.
func (d *Deployment) NewRecoveredReplicaGateway(id node.ID) (*replica.Gateway, error) {
	if !d.svc.Durable {
		return nil, errors.New("core: NewRecoveredReplicaGateway requires ServiceConfig.Durable")
	}
	return d.newReplica(id)
}

// newReplica renders the deployment's replica.Config for one node — the
// only place a replica.Config is built — and builds the gateway.
func (d *Deployment) newReplica(id node.ID) (*replica.Gateway, error) {
	primary, err := d.roleOf(id)
	if err != nil {
		return nil, err
	}
	durable, err := d.durableStore(id)
	if err != nil {
		return nil, err
	}
	gw := replica.New(replica.Config{
		Primary:           primary,
		OnApply:           bindApply(d.svc.OnApply, id),
		OnServeRead:       bindServeRead(d.svc.OnServeRead, id),
		OnRestore:         bindCSN(d.svc.OnRestore, id),
		OnRecover:         bindCSN(d.svc.OnRecover, id),
		PrimaryGroup:      d.PrimaryGroup,
		Secondaries:       d.Secondaries,
		Clients:           d.ClientIDs,
		Group:             d.svc.Group,
		LazyInterval:      d.svc.LazyInterval,
		ServiceDelay:      d.svc.ServiceDelay,
		ChaseInterval:     d.svc.ChaseInterval,
		AssignBatch:       d.svc.AssignBatch,
		AssignBatchWindow: d.svc.AssignBatchWindow,
		FastReads:         d.svc.FastReads,
		Durable:           durable,
		SnapshotEvery:     d.svc.SnapshotEvery,
		ReplicatedAssign:  d.svc.ReplicatedAssign,
		App:               d.svc.NewApp(),
		Obs:               d.svc.Obs,
		Tracer:            d.svc.Tracer,
	})
	d.Replicas[id] = gw
	return gw, nil
}

// bindApply/bindServeRead/bindCSN curry the deployment-level observation
// hooks with the replica's identity; a nil hook stays nil so the gateways'
// fast paths keep their single nil check.
func bindApply(fn func(node.ID, uint64, consistency.RequestID), id node.ID) func(uint64, consistency.RequestID) {
	if fn == nil {
		return nil
	}
	return func(gsn uint64, rid consistency.RequestID) { fn(id, gsn, rid) }
}

func bindServeRead(fn func(node.ID, consistency.RequestID, uint64, uint64, int, bool), id node.ID) func(consistency.RequestID, uint64, uint64, int, bool) {
	if fn == nil {
		return nil
	}
	return func(rid consistency.RequestID, gsn, csn uint64, staleness int, deferred bool) {
		fn(id, rid, gsn, csn, staleness, deferred)
	}
}

func bindCSN(fn func(node.ID, uint64), id node.ID) func(uint64) {
	if fn == nil {
		return nil
	}
	return func(csn uint64) { fn(id, csn) }
}

// DefaultsForClient returns substrate settings for client gateways:
// reliable FIFO links with retransmission, no heartbeats (clients join no
// groups).
func DefaultsForClient() group.Config {
	cfg := group.DefaultConfig()
	cfg.HeartbeatInterval = 0
	cfg.FailTimeout = 0
	return cfg
}

// Deploy registers a full service and its clients with rt. Node IDs are
// generated: the sequencer and primaries are p00, p01, ...; secondaries
// s00, s01, ...; p00 is the initial sequencer.
func Deploy(rt Runtime, svc ServiceConfig, clients []ClientConfig) (*Deployment, error) {
	if svc.Primaries < 2 {
		return nil, errors.New("core: need at least 2 primaries (sequencer + 1 serving member)")
	}
	var info client.ServiceInfo
	for i := 0; i < svc.Primaries; i++ {
		info.Primaries = append(info.Primaries, node.ID(fmt.Sprintf("%sp%02d", svc.NodePrefix, i)))
	}
	info.Sequencer = info.Primaries[0]
	for i := 0; i < svc.Secondaries; i++ {
		info.Secondaries = append(info.Secondaries, node.ID(fmt.Sprintf("%ss%02d", svc.NodePrefix, i)))
	}
	d, err := NewDeployment(svc, info, clients)
	if err != nil {
		return nil, err
	}
	ids := append(append([]node.ID(nil), d.PrimaryGroup...), d.Secondaries...)
	for _, c := range clients {
		ids = append(ids, c.ID)
	}
	if err := d.Host(rt, ids...); err != nil {
		return nil, err
	}
	return d, nil
}

// NewDeployment wires svc over already-named members without building any
// gateway: info names the primary group (sequencer first) and the
// secondaries, and — with LazyInterval set from svc — is what every client is
// told. svc's NodePrefix, Primaries and Secondaries are not consulted; they
// only name Deploy's members. Build the gateways with Host.
func NewDeployment(svc ServiceConfig, info client.ServiceInfo, clients []ClientConfig) (*Deployment, error) {
	if len(info.Primaries) < 2 || info.Sequencer != info.Primaries[0] {
		return nil, errors.New("core: need at least 2 primaries, the sequencer first")
	}
	if svc.NewApp == nil {
		return nil, errors.New("core: ServiceConfig.NewApp is required")
	}
	if svc.LazyInterval <= 0 {
		return nil, errors.New("core: LazyInterval must be positive")
	}
	for _, c := range clients {
		if err := c.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("core: client %s: %w", c.ID, err)
		}
		if c.ID == "" {
			return nil, errors.New("core: client ID required")
		}
	}
	info.LazyInterval = svc.LazyInterval
	d := &Deployment{
		Sequencer:        info.Sequencer,
		PrimaryGroup:     info.Primaries,
		ServingPrimaries: info.Primaries[1:],
		Secondaries:      info.Secondaries,
		Replicas:         make(map[node.ID]*replica.Gateway),
		Clients:          make(map[node.ID]*client.Gateway),
		Info:             info,
		svc:              svc,
		clients:          clients,
	}
	if svc.Durable && svc.NewMedia == nil {
		d.Media = wal.NewRegistry()
	}
	for _, c := range clients {
		d.ClientIDs = append(d.ClientIDs, c.ID)
	}
	d.ClientIDs = append(d.ClientIDs, svc.ExtraClients...)
	return d, nil
}

// Host builds the gateways of the named members and registers them with rt
// in order. Each ID must be a replica of the deployment or a client it was
// given a ClientConfig for. A process serving part of a service hosts its
// subset on its own runtime; Deploy hosts every member on one.
func (d *Deployment) Host(rt Runtime, ids ...node.ID) error {
	for _, id := range ids {
		n, err := d.newMember(id)
		if err != nil {
			return err
		}
		rt.Register(id, n)
	}
	return nil
}

func (d *Deployment) newMember(id node.ID) (node.Node, error) {
	for _, c := range d.clients {
		if c.ID != id {
			continue
		}
		cc := ClientGatewayConfig(d.svc, c)
		cc.Service = d.Info
		gw := client.New(cc)
		d.Clients[id] = gw
		if c.Driver != nil {
			return &drivenClient{gw: gw, driver: c.Driver}, nil
		}
		return gw, nil
	}
	return d.newReplica(id)
}

// ClientGatewayConfig renders a ClientConfig into the client.Config Deploy
// would build for it — substrate defaults, registry/tracer fallback to the
// service's — with Service left zero for the caller to fill. Shard routers
// use it to instantiate per-shard gateways that behave exactly like
// Deploy-built clients.
func ClientGatewayConfig(svc ServiceConfig, c ClientConfig) client.Config {
	gcfg := DefaultsForClient()
	if c.Group != nil {
		gcfg = *c.Group
	}
	reg, tracer := c.Obs, c.Tracer
	if reg == nil {
		reg = svc.Obs
	}
	if tracer == nil {
		tracer = svc.Tracer
	}
	return client.Config{
		Spec:             c.Spec,
		Methods:          c.Methods,
		WindowSize:       c.WindowSize,
		BinWidth:         c.BinWidth,
		Selector:         c.Selector,
		Group:            gcfg,
		OnBreach:         c.OnBreach,
		CountedEstimator: c.CountedEstimator,
		OnSelect:         c.OnSelect,
		RetryInterval:    c.RetryInterval,
		MaxRetries:       c.MaxRetries,
		MaxPending:       c.MaxPending,
		Obs:              reg,
		Tracer:           tracer,
	}
}

// drivenClient wraps a client gateway with a workload driver that runs in
// the node's own context at Init.
type drivenClient struct {
	gw     *client.Gateway
	driver func(ctx node.Context, gw *client.Gateway)
}

func (d *drivenClient) Init(ctx node.Context) {
	d.gw.Init(ctx)
	d.driver(ctx, d.gw)
}

func (d *drivenClient) Recv(from node.ID, m node.Message) {
	d.gw.Recv(from, m)
}
