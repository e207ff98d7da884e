// Package replica implements the server-side AQuA gateway handler of
// Section 4: the sequential-consistency protocol roles (sequencer, primary,
// secondary, lazy publisher), the single-server work queue whose queueing
// delay the monitoring layer measures, the performance instrumentation and
// broadcasts of Section 5.4, and the sequencer/lazy-publisher failover the
// paper sketches in Section 4.1.
package replica

import (
	"fmt"
	"math/rand"
	"time"

	"aqua/internal/app"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/wal"
)

// PrimaryGroupName is the heartbeating group of primary replicas; its
// leader is the sequencer.
const PrimaryGroupName = "primary"

// DelayModel produces the simulated service delay for one request — the
// paper "simulated the background load on the servers by having each
// replica respond to a request after a delay that was normally distributed".
// A nil model means requests are serviced with zero simulated delay.
type DelayModel func(r *rand.Rand) time.Duration

// Config describes one replica gateway.
type Config struct {
	// Primary marks membership in the primary group. The initial sequencer
	// is the lowest-ID primary member.
	Primary bool
	// PrimaryGroup lists all primary members, including the sequencer.
	PrimaryGroup []node.ID
	// Secondaries lists the secondary group.
	Secondaries []node.ID
	// Clients lists the client gateways to publish measurements to (the
	// QoS group of Figure 1).
	Clients []node.ID
	// Group tunes the communication substrate.
	Group group.Config
	// LazyInterval is T_L, the lazy update period of the designated
	// publisher.
	LazyInterval time.Duration
	// ServiceDelay simulates background load; nil for none.
	ServiceDelay DelayModel
	// ChaseInterval is how often buffered requests missing their GSN
	// assignment are chased with a GSNRequest; 0 selects a default.
	ChaseInterval time.Duration
	// AssignBatch bounds the sequencer's assignment window: requests
	// accumulate into a window of at most AssignBatch and are assigned and
	// broadcast as one GSNAssignBatch. Values <= 1 are a window of one,
	// flushed as each request arrives — the paper's per-request broadcast.
	// An update chase (GSNRequest) joins the window like a request, so with
	// AssignBatch > 1 its reply can wait up to AssignBatchWindow.
	AssignBatch int
	// AssignBatchWindow bounds how long a non-full assignment window
	// accumulates before flushing. 0 flushes at the end of the current
	// virtual instant (coalescing only same-instant arrivals). A window of
	// one never waits. On the live runtime a sequencer flushes a non-empty
	// window at every drain of its mailbox, so a request reaching an idle
	// sequencer leaves without waiting for the timer.
	AssignBatchWindow time.Duration
	// FastReads enables the frontier fast path: a read whose snapshot GSN
	// the commit stream has already reached, arriving while the work queue
	// is idle and no service-delay model is configured, is served inline —
	// no job staging, no queue pass, no deferred-read machinery.
	FastReads bool
	// Durable, when non-nil, gives the replica a write-ahead log plus
	// snapshot cell (DESIGN.md §14): every released commit is logged before
	// its effects become visible, lazy/recovery snapshots refresh the cell,
	// and Init replays snapshot + log suffix back to the exact pre-crash
	// commit frontier instead of re-fetching history from peers.
	Durable *wal.Store
	// SnapshotEvery, when positive, compacts the log into a fresh snapshot
	// once it holds exactly this many records. 0 selects the default rule,
	// which amortises the cell rewrite against the log: at least 256 records
	// and at least as many log bytes as the snapshot cell being replaced
	// (wal.Store.CompactionDue). Only meaningful with Durable.
	SnapshotEvery int
	// ReplicatedAssign enables quorum-replicated GSN assignment: primaries
	// acknowledge their contiguous assignment frontier (AssignAck), the
	// sequencer releases commits only up to the majority floor
	// (OrderCommit), and takeover merges survivors' assignment tables — a
	// sequencer death leaves no assignment hole behind a released commit.
	ReplicatedAssign bool
	// App is this replica's application instance.
	App app.Application
	// OnRecover, if set, observes a durable recovery at Init with the
	// recovered commit frontier (after snapshot restore + log replay,
	// before the replica rejoins the group). The chaos harness's
	// recovery-frontier oracle feeds from it.
	OnRecover func(csn uint64)
	// OnApply, if set, observes every update actually executed against the
	// application, in execution order — test hooks use it to verify the
	// sequential-consistency prefix property across replicas.
	OnApply func(gsn uint64, id consistency.RequestID)
	// OnServeRead, if set, observes every read-only request at the moment
	// its reply is produced: the read's order GSN, the replica's CSN at
	// serve time, the client's staleness bound a, and whether the read was
	// deferred until a lazy update. The chaos harness's staleness-honesty
	// and deferred-read oracles feed from it.
	OnServeRead func(id consistency.RequestID, gsn, csn uint64, staleness int, deferred bool)
	// OnRestore, if set, observes every state snapshot actually restored
	// (lazy update at a secondary, recovery snapshot anywhere) with the
	// snapshot's CSN. The deferred-read oracle pairs it with OnServeRead.
	OnRestore func(csn uint64)
	// Obs, when non-nil, receives served-request counters, the
	// staleness-at-read histogram, and commit/defer/work queue depth gauges.
	Obs *obs.Registry
	// Tracer, when non-nil, receives one JSONL span per served job.
	Tracer *obs.Tracer
}

func (c *Config) setDefaults() {
	if c.ChaseInterval <= 0 {
		c.ChaseInterval = 500 * time.Millisecond
	}
	if c.LazyInterval <= 0 {
		c.LazyInterval = 2 * time.Second
	}
}

// Gateway is the server-side gateway handler for one replica. It implements
// node.Node; all state is confined to the owning node's callbacks.
type Gateway struct {
	cfg Config
	ctx node.Context

	stack  *group.Stack
	commit *consistency.CommitBuffer
	reads  *consistency.ReadBuffer

	// Role state.
	isLeader    bool
	isPublisher bool
	sequencerID node.ID
	seqState    *consistency.SequencerState
	seqReady    bool
	started     bool

	// Takeover (sequencer failover) state. takeoverReported tracks which
	// peers this era's round has counted, so a re-queried peer answering
	// twice contributes one vote toward the quorum, not two.
	epoch            uint64
	takeoverMax      uint64
	takeoverAwait    int
	takeoverReported map[node.ID]bool
	takeoverDone     node.CancelFunc
	heldRequests     []heldRequest

	// Assignment-window state (sequencer role): the accumulating window, its
	// flush timer, and the scratch that filters memoized duplicates out of
	// a flush.
	batchUpdates    []consistency.RequestID
	batchReads      []consistency.RequestID
	batchFresh      []consistency.RequestID
	batchFlushArmed bool
	batchFlushFn    func()

	// Plain batching/fast-path counters (always on; tests and the
	// benchmark read them without an obs registry).
	assignFlushes     uint64
	assignFlushedReqs uint64
	fastServed        uint64

	// Work queue (single server: queueing delay is emergent).
	queue []job
	busy  bool

	// jobRun and walRun are scratch for enqueueCommits and releaseRun: the
	// run of jobs being released and its WAL records, reused so a release
	// allocates nothing per update.
	jobRun []job
	walRun []wal.Record

	// applied is the GSN of the last update actually executed against the
	// application; it trails commit.MyCSN() by the queue contents.
	applied uint64

	// bodyArrived records when update bodies arrived, for tq measurement.
	bodyArrived map[consistency.RequestID]time.Time

	// recentBodies retains recently committed update bodies so peers whose
	// copy of a client multicast was lost can recover them (BodyRequest).
	recentBodies *consistency.Memo[consistency.Request]

	// observedAssigns remembers every update GSN assignment this primary
	// has seen, across sequencer eras (bounded FIFO). A new sequencer
	// consults it before assigning: re-issuing the original number for a
	// retransmitted request keeps the group's order identical everywhere.
	observedAssigns *consistency.Memo[uint64]

	// committed is the commit-dedup memo: request IDs whose update has
	// been applied (or deliberately skipped as a duplicate). A client
	// retransmission re-sequenced after a sequencer failover arrives as a
	// second (GSN, body) pair; the memo turns its application into a
	// reply-only no-op on every replica.
	committed *consistency.Memo[struct{}]

	// Publisher measurement counters (Section 5.4.1).
	updatesSinceBroadcast int       // nu
	lastBroadcastAt       time.Time // start of tu
	updatesSinceLazy      int       // nL
	lastLazyAt            time.Time // start of tL
	lazyTimerSet          bool

	// Tick callbacks bound once at Init so re-arming a periodic timer does
	// not allocate a fresh method-value closure per tick.
	chaseFn func()
	lazyFn  func()

	// Stuck-stream detection: the last time my_CSN advanced, and its value
	// then. A commit stream with my_GSN ahead of my_CSN that makes no
	// progress across chase ticks has a hole nothing will fill (both the
	// body and the assignment died with a crashed sequencer); the replica
	// recovers through a snapshot.
	lastCSN   uint64
	lastCSNAt time.Time

	// Replicated-assignment state. The tracker lives only at the leader;
	// lastAckedFrontier suppresses duplicate AssignAcks at followers;
	// lastFloor suppresses duplicate (or regressing) OrderCommit broadcasts
	// across sequencer eras; recovered is the durable frontier Init
	// reconstructed, when any.
	orderTracker      *consistency.OrderTracker
	lastAckedFrontier uint64
	lastFloor         uint64
	orderCommitsSent  uint64
	recovered         uint64

	// wedged marks a durability fail-stop (see walFail): the WAL could not
	// extend its frontier, so the replica goes silent rather than keep
	// acking commits it can no longer promise to recover.
	wedged bool

	// Reads deferred at a primary until its own commits catch up (the
	// paper's secondaries defer until a lazy update; a primary's state
	// converges through its commit stream instead).
	commitWaiters []consistency.PendingRead

	// ins holds the resolved observability instruments (all nil no-ops when
	// Config.Obs is nil); obsOn gates the depth-gauge refreshes.
	ins   replicaInstruments
	obsOn bool
}

var _ node.Node = (*Gateway)(nil)

// Sizes of the replica's request memos (consistency.Memo) and of the ID
// lists cut from them. They are fixed, not configurable.
const (
	// assignMemoSize matches the sequencer's memo: takeover re-issues its GSNs.
	assignMemoSize = 4096
	// commitMemoSize keeps a re-sequenced retransmission a reply-only no-op.
	commitMemoSize = 4096
	// bodyMemoSize covers the BodyRequests of peers a few commits behind.
	bodyMemoSize = 1024
	// recentIDsLimit caps the committed IDs a snapshot carries for dedup.
	recentIDsLimit = 1024
	// reportAssignsLimit caps the assignments a takeover GSNReport carries.
	reportAssignsLimit = 1024
)

// New creates a replica gateway. The caller registers it with a runtime
// under its node ID.
func New(cfg Config) *Gateway {
	cfg.setDefaults()
	if cfg.App == nil {
		panic("replica: Config.App is required")
	}
	if len(cfg.PrimaryGroup) < 2 {
		panic("replica: primary group needs at least a sequencer and one serving member")
	}
	return &Gateway{
		cfg:             cfg,
		commit:          consistency.NewCommitBuffer(),
		reads:           consistency.NewReadBuffer(0),
		bodyArrived:     make(map[consistency.RequestID]time.Time),
		recentBodies:    consistency.NewMemo[consistency.Request](bodyMemoSize),
		committed:       consistency.NewMemo[struct{}](commitMemoSize),
		observedAssigns: consistency.NewMemo[uint64](assignMemoSize),
	}
}

// Init implements node.Node.
func (g *Gateway) Init(ctx node.Context) {
	g.ctx = ctx
	// Bind the tick callbacks before anything (including the synchronous
	// first view callback out of Join) can schedule them.
	g.chaseFn = g.chaseTick
	g.lazyFn = g.lazyTick
	g.batchFlushFn = func() {
		g.batchFlushArmed = false
		g.flushAssignBatch()
	}
	g.lastBroadcastAt = ctx.Now()
	g.lastLazyAt = ctx.Now()
	if g.cfg.Primary && g.cfg.AssignBatch > 1 {
		// Once the mailbox has drained, nothing else is about to join the
		// window, so a non-empty window leaves now rather than at its
		// timer, as the paper's sequencer assigns a request on arrival.
		// The requests that arrive while a flush is being written form the
		// next window by themselves. The window timer stays armed: when it
		// fires it flushes whatever joined since, or finds the window empty.
		ctx.OnIdle(g.flushAssignBatch)
	}
	g.stack = group.NewStack(ctx, g.cfg.Group, g.handleDelivery)
	g.sequencerID = sortedFirst(g.cfg.PrimaryGroup)
	g.ins = newReplicaInstruments(g.cfg.Obs, ctx.ID())
	g.obsOn = g.cfg.Obs != nil

	if g.cfg.ReplicatedAssign && g.cfg.Primary {
		g.commit.GateReleases()
	}
	// Durable recovery runs before Join: the replica rejoins the group
	// already standing at its pre-crash commit frontier.
	if g.cfg.Durable != nil {
		g.recoverDurable()
	}

	if g.cfg.Primary {
		g.stack.Join(PrimaryGroupName, g.cfg.PrimaryGroup, g.onPrimaryView)
	}
	g.started = true
	g.lastCSNAt = ctx.Now()
	g.ctx.Post(g.cfg.ChaseInterval, g.chaseFn)

	// Bootstrap/restart state sync: ask the sequencer for a snapshot so a
	// rejoining replica converges immediately instead of waiting for the
	// commit stream (primary) or the next lazy update (secondary). At a
	// fresh deployment the answer is an empty snapshot at CSN 0, a no-op.
	// A replica that just recovered durable state skips this — replacing
	// the peer re-fetch is the point of the log; if it is genuinely behind,
	// the chase tick's gap detection pulls a snapshot as usual.
	if !g.isLeader && g.recovered == 0 {
		g.stack.Send(g.sequencerID, consistency.SyncRequest{})
	}
}

// Recv implements node.Node.
func (g *Gateway) Recv(from node.ID, m node.Message) {
	if g.wedged {
		// Fail-stopped on a durability failure: drop everything, including
		// group heartbeats, so peers detect the silence and heal around
		// this node exactly as they would around a crash.
		return
	}
	if g.stack.Handle(from, m) {
		return
	}
	g.ctx.Logf("replica: unexpected raw message %T from %s", m, from)
}

// handleDelivery processes substrate-delivered application payloads.
func (g *Gateway) handleDelivery(from node.ID, m node.Message) {
	// Hot types arrive as pointers from the live transport's shared decoder
	// (tcpnet DecodeShared) and as values from the simulator; both forms
	// are accepted.
	switch msg := m.(type) {
	case consistency.Request:
		g.onRequest(from, msg)
	case *consistency.Request:
		g.onRequest(from, *msg)
	case consistency.GSNAssign:
		g.onAssign(msg)
	case *consistency.GSNAssign:
		g.onAssign(*msg)
	case consistency.GSNAssignBatch:
		g.onAssignBatch(msg)
	case *consistency.GSNAssignBatch:
		g.onAssignBatch(*msg)
	case consistency.GSNRequest:
		g.onGSNRequest(from, msg)
	case consistency.BodyRequest:
		g.onBodyRequest(from, msg)
	case consistency.StateUpdate:
		g.onStateUpdate(msg)
	case *consistency.StateUpdate:
		g.onStateUpdate(*msg)
	case consistency.SyncRequest:
		g.onSyncRequest(from)
	case consistency.GSNQuery:
		g.stack.Send(from, g.buildGSNReport(msg.Epoch))
	case consistency.GSNReport:
		g.onGSNReport(from, msg)
	case consistency.AssignAck:
		g.onAssignAck(from, msg)
	case consistency.OrderCommit:
		g.onOrderCommit(msg)
	case consistency.SequencerAnnounce:
		g.sequencerID = msg.Sequencer
	case consistency.DigestAnnounce:
		g.onDigest(from, msg)
	default:
		g.ctx.Logf("replica: unhandled payload %T from %s", m, from)
	}
}

// Sequencer returns this replica's current belief about the sequencer
// identity (for tests and diagnostics).
func (g *Gateway) Sequencer() node.ID { return g.sequencerID }

// IsLeader reports whether this replica currently acts as the sequencer.
func (g *Gateway) IsLeader() bool { return g.isLeader }

// IsPublisher reports whether this replica is the designated lazy
// publisher.
func (g *Gateway) IsPublisher() bool { return g.isPublisher }

// CSN returns the replica's commit sequence number.
func (g *Gateway) CSN() uint64 { return g.commit.MyCSN() }

// Applied returns the GSN of the last update executed against the app.
func (g *Gateway) Applied() uint64 { return g.applied }

// FastServed returns how many reads this gateway served through the
// frontier fast path.
func (g *Gateway) FastServed() uint64 { return g.fastServed }

// AssignBatchStats returns the sequencer role's flush count and the total
// requests those flushes covered; their ratio is the realized mean batch
// size (1 with a window of one). Update chases join the window, so they
// count as requests too. Zero on replicas that never sequenced.
func (g *Gateway) AssignBatchStats() (flushes, requests uint64) {
	return g.assignFlushes, g.assignFlushedReqs
}

// App exposes the application instance (tests verify replica state).
func (g *Gateway) App() app.Application { return g.cfg.App }

func sortedFirst(ids []node.ID) node.ID {
	if len(ids) == 0 {
		return ""
	}
	first := ids[0]
	for _, id := range ids[1:] {
		if id < first {
			first = id
		}
	}
	return first
}

// replicaTargets returns every other replica (primary members and
// secondaries), used for read-GSN broadcasts.
func (g *Gateway) replicaTargets() []node.ID {
	var out []node.ID
	self := g.ctx.ID()
	for _, id := range g.cfg.PrimaryGroup {
		if id != self {
			out = append(out, id)
		}
	}
	for _, id := range g.cfg.Secondaries {
		if id != self {
			out = append(out, id)
		}
	}
	return out
}

func (g *Gateway) otherPrimaries() []node.ID {
	var out []node.ID
	self := g.ctx.ID()
	for _, id := range g.cfg.PrimaryGroup {
		if id != self {
			out = append(out, id)
		}
	}
	return out
}

// errString converts an application error for the wire.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fmtID renders a request ID for logs.
func fmtID(id consistency.RequestID) string {
	return fmt.Sprintf("%s/%d", id.Client, id.Seq)
}
