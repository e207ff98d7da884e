package shard

import (
	"fmt"
	"sort"

	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/node"
)

// Config describes a shard router.
type Config struct {
	// Shards lists each shard's client-visible service description, indexed
	// by shard number (the Map's owner values).
	Shards []client.ServiceInfo
	// Map is the initial shard map (default: uniform over len(Shards)).
	Map *Map
	// Client is the per-shard gateway template: QoS spec, read-only method
	// registry, selector, window size, substrate and retry tuning. The
	// router instantiates one client gateway per shard from it (Service is
	// overwritten per shard), so replica selection runs independently per
	// shard exactly as an unsharded client would run it.
	Client client.Config
	// Key extracts the routing key from an invocation. The default takes
	// the payload up to the first '=' (the KV application's "key=value"
	// update and bare-key read convention).
	Key func(method string, payload []byte) string
	// ReadMethod/UpdateMethod name the operations the migration protocol
	// uses to copy a key between shards (defaults "Get"/"Set").
	ReadMethod   string
	UpdateMethod string
}

// bufferedCall is one invocation held back while its key range migrates.
type bufferedCall struct {
	method  string
	payload []byte
	cb      func(client.Result)
}

// migration is one in-flight range move: freeze → drain → copy → install.
type migration struct {
	lo, hi   uint64
	from, to int
	next     *Map
	// draining is true until the source shard's outstanding count reaches
	// zero; then the copy phase reads every known key in the range from the
	// source and writes it through the destination.
	draining bool
	// moving holds the keys the copy phase has still to copy, in order.
	moving   []string
	buffered []bufferedCall
	onDone   func(*Map)
}

// Router fronts a sharded service: it owns one client gateway per shard —
// all sharing the router's single node identity — and routes every
// invocation to the shard owning its key. It implements node.Node; register
// it where an unsharded experiment would register a client gateway.
//
// With one shard the router is a transparent shim: every message flows
// through gateway 0 exactly as it would through a bare client.Gateway, so a
// single-shard deployment reproduces the unsharded runs byte for byte
// (TestChaosGolden in internal/experiment holds this: every unsharded chaos
// client is a one-shard router).
type Router struct {
	cfg Config
	ctx node.Context
	m   *Map

	gws   []*client.Gateway
	owner map[node.ID]int // replica ID -> shard index

	// outstanding counts in-flight invocations per shard (callbacks always
	// fire, so the counts converge); the migration drain waits on it.
	outstanding []int
	// keys records every key this router has routed an update for — the
	// key inventory a range migration copies. Bounded by the workload's key
	// universe, which the sharding scenarios keep small.
	keys map[string]struct{}

	mig *migration
}

var _ node.Node = (*Router)(nil)

// New creates a router and its per-shard gateways.
func New(cfg Config) *Router {
	if len(cfg.Shards) == 0 {
		panic("shard: Config.Shards is required")
	}
	if cfg.Map == nil {
		cfg.Map = NewUniform(len(cfg.Shards))
	}
	if cfg.Map.Shards() != len(cfg.Shards) {
		panic(fmt.Sprintf("shard: map routes %d shards, config lists %d", cfg.Map.Shards(), len(cfg.Shards)))
	}
	if cfg.Key == nil {
		cfg.Key = DefaultKey
	}
	if cfg.ReadMethod == "" {
		cfg.ReadMethod = "Get"
	}
	if cfg.UpdateMethod == "" {
		cfg.UpdateMethod = "Set"
	}
	r := &Router{
		cfg:         cfg,
		m:           cfg.Map,
		owner:       make(map[node.ID]int),
		outstanding: make([]int, len(cfg.Shards)),
		keys:        make(map[string]struct{}),
	}
	for i, info := range cfg.Shards {
		gcfg := cfg.Client
		gcfg.Service = info
		if len(cfg.Shards) > 1 {
			gcfg.Obs = gcfg.Obs.WithLabels("shard", fmt.Sprint(i))
		}
		r.gws = append(r.gws, client.New(gcfg))
		for _, id := range info.Primaries {
			r.owner[id] = i
		}
		for _, id := range info.Secondaries {
			r.owner[id] = i
		}
	}
	return r
}

// DefaultKey is the KV convention: the payload up to the first '=' (whole
// payload for reads, which carry the bare key).
func DefaultKey(method string, payload []byte) string {
	for i, c := range payload {
		if c == '=' {
			return string(payload[:i])
		}
	}
	return string(payload)
}

// Init implements node.Node: it binds every per-shard gateway to the
// router's node context. Each gateway builds its own substrate stack; the
// router demultiplexes inbound traffic to the right stack by sender (shard
// replica ID sets are disjoint).
func (r *Router) Init(ctx node.Context) {
	r.ctx = ctx
	for _, gw := range r.gws {
		gw.Init(ctx)
	}
}

// Recv implements node.Node.
func (r *Router) Recv(from node.ID, m node.Message) {
	if a, ok := m.(consistency.ShardMapAnnounce); ok {
		r.onAnnounce(a)
		return
	}
	if i, ok := r.owner[from]; ok {
		r.gws[i].Recv(from, m)
		return
	}
	// Unknown senders fall through to shard 0's stack, which logs and
	// ignores anything it cannot handle — the bare gateway's behaviour.
	r.gws[0].Recv(from, m)
}

// onAnnounce installs a remotely distributed shard map (live clusters push
// these); stale or duplicate versions are ignored.
func (r *Router) onAnnounce(a consistency.ShardMapAnnounce) {
	m, err := FromAnnounce(a)
	if err != nil {
		r.ctx.Logf("shard: rejecting map announce: %v", err)
		return
	}
	if m.Shards() != len(r.gws) {
		r.ctx.Logf("shard: rejecting map announce: %d shards, have %d gateways", m.Shards(), len(r.gws))
		return
	}
	if m.Version() <= r.m.Version() {
		return
	}
	r.m = m
}

// ShardMap returns the router's current map.
func (r *Router) ShardMap() *Map { return r.m }

// Gateway exposes shard i's client gateway (metrics, tests).
func (r *Router) Gateway(i int) *client.Gateway { return r.gws[i] }

// Migrating reports whether a range move is in flight.
func (r *Router) Migrating() bool { return r.mig != nil }

// Outstanding returns the in-flight invocation count routed to shard i.
func (r *Router) Outstanding(i int) int { return r.outstanding[i] }

// Invoke routes one invocation to the shard owning its key. During a range
// migration, invocations for keys inside the moving interval are buffered
// and released — routed by the post-move map — once the new owner has the
// range, preserving per-key sequential consistency across the move. All
// other keys route immediately.
func (r *Router) Invoke(method string, payload []byte, cb func(client.Result)) {
	key := r.cfg.Key(method, payload)
	h := uint64(Hash(key))
	if r.mig != nil && h >= r.mig.lo && h < r.mig.hi {
		r.mig.buffered = append(r.mig.buffered, bufferedCall{method: method, payload: payload, cb: cb})
		return
	}
	r.dispatch(r.m.OwnerOf(uint32(h)), key, method, payload, cb)
}

// dispatch sends one invocation through shard i's gateway, tracking the
// in-flight count and the update-key inventory.
func (r *Router) dispatch(i int, key, method string, payload []byte, cb func(client.Result)) {
	if !r.cfg.Client.Methods.IsReadOnly(method) {
		r.keys[key] = struct{}{}
	}
	r.outstanding[i]++
	r.gws[i].Invoke(method, payload, func(res client.Result) {
		r.outstanding[i]--
		if cb != nil {
			cb(res)
		}
		r.maybeDrained()
	})
}

// ReadAll fans a read out to every shard — the cross-shard read path — and
// reports each shard's result (with the serving replica) as it arrives.
// Staleness accounting stays per shard: each gateway enforces and observes
// its own shard's <a, d, Pc(d)> spec independently.
func (r *Router) ReadAll(method string, payload []byte, cb func(shard int, res client.Result)) {
	for i := range r.gws {
		i := i
		r.outstanding[i]++
		r.gws[i].Invoke(method, payload, func(res client.Result) {
			r.outstanding[i]--
			if cb != nil {
				cb(i, res)
			}
			r.maybeDrained()
		})
	}
}

// Move re-homes the hash interval [lo, hi) to shard `to`, live:
//
//  1. Freeze — invocations for keys in the interval buffer in the router.
//  2. Drain — wait until the source shard has zero in-flight invocations
//     from this router, so every pre-move update has completed (and thus
//     holds a GSN in the source shard's order).
//  3. Copy — read each known key in the interval from the source shard at
//     staleness 0 (the committed frontier) and write it through the
//     destination shard, giving it a GSN in the destination's order, one
//     key at a time. A failed read or write is reissued until it succeeds.
//  4. Install — adopt the version-bumped map and release the buffered
//     invocations to the new owner.
//
// Per-key sequential consistency holds across the move: every write a
// client completed before Move reaches the destination (step 3 reads the
// frontier after step 2's quiesce), and no read of a moving key is served
// between freeze and install, so a released read observes a state at least
// as fresh as the strongest pre-move write. onDone (optional) receives the
// installed map. hi may be ringEnd (1<<32) to address the ring's top.
func (r *Router) Move(lo, hi uint64, to int, onDone func(*Map)) error {
	if r.mig != nil {
		return fmt.Errorf("shard: a migration is already in flight")
	}
	from, ok := r.m.RangeOwner(lo, hi)
	if !ok {
		return fmt.Errorf("shard: Move: [%d, %d) is not owned by a single shard", lo, hi)
	}
	if from == to {
		return fmt.Errorf("shard: Move: [%d, %d) already owned by shard %d", lo, hi, to)
	}
	next, err := r.m.Move(lo, hi, to)
	if err != nil {
		return err
	}
	r.mig = &migration{lo: lo, hi: hi, from: from, to: to, next: next, draining: true, onDone: onDone}
	r.maybeDrained()
	return nil
}

// maybeDrained advances a draining migration once the source shard
// quiesces. Called after every completion callback.
func (r *Router) maybeDrained() {
	mig := r.mig
	if mig == nil || !mig.draining || r.outstanding[mig.from] != 0 {
		return
	}
	mig.draining = false
	r.startCopy(mig)
}

// startCopy runs the migration's copy phase: known keys in the moving
// interval, in sorted order (map iteration order must not leak into the
// deterministic simulation), each read from the source frontier and written
// through the destination.
func (r *Router) startCopy(mig *migration) {
	for key := range r.keys {
		if h := uint64(Hash(key)); h >= mig.lo && h < mig.hi {
			mig.moving = append(mig.moving, key)
		}
	}
	sort.Strings(mig.moving)
	r.copyNext(mig)
}

// copyNext copies the next key, or installs once every key is copied. Keys
// go one at a time: a copy invocation that MaxPending newer ones evicted
// would be reissued and evict another in turn, so a range holding more
// keys than MaxPending must never have them all in flight at once.
func (r *Router) copyNext(mig *migration) {
	if len(mig.moving) == 0 {
		r.install(mig)
		return
	}
	key := mig.moving[0]
	mig.moving = mig.moving[1:]
	r.copyRead(mig, key)
}

// copyRead reads key from the source shard's committed frontier (staleness
// 0: every update that completed before the drain finished) and hands the
// value to copyWrite. A failed invocation says nothing about the key, so it
// is read again: installing without it would lose an acknowledged write.
// The migration therefore waits out a source shard that cannot answer.
func (r *Router) copyRead(mig *migration, key string) {
	r.gws[mig.from].InvokeStale(r.cfg.ReadMethod, []byte(key), 0, func(res client.Result) {
		switch {
		case res.Err != "":
			r.copyRead(mig, key)
		case len(res.Payload) == 0:
			// Key unknown at the source (never written, or written and
			// deleted); nothing to copy.
			r.copyNext(mig)
		default:
			r.copyWrite(mig, append(append([]byte(key), '='), res.Payload...))
		}
	})
}

// copyWrite writes one copied key=value through the destination shard,
// again until an invocation succeeds.
func (r *Router) copyWrite(mig *migration, val []byte) {
	r.gws[mig.to].Invoke(r.cfg.UpdateMethod, val, func(res client.Result) {
		if res.Err != "" {
			r.copyWrite(mig, val)
			return
		}
		r.copyNext(mig)
	})
}

// install adopts the post-move map and replays the buffered invocations
// against it (they route to the new owner).
func (r *Router) install(mig *migration) {
	r.m = mig.next
	r.mig = nil
	for _, b := range mig.buffered {
		r.Invoke(b.method, b.payload, b.cb)
	}
	if mig.onDone != nil {
		mig.onDone(r.m)
	}
}

// RingEnd is the exclusive upper bound of the hash ring — pass it as Move's
// hi to address the ring's top end.
const RingEnd = ringEnd
