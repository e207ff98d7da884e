package experiment

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/chaos"
	"aqua/internal/check"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/replica"
	"aqua/internal/shard"
	"aqua/internal/sim"
	"aqua/internal/stats"
)

// ChaosConfig parameterizes one chaos run: a full deployment under a
// generated (or supplied) fault schedule, with every protocol observation
// recorded and judged by the check package's invariant oracles.
//
// Unlike the paper-figure experiments, a chaos run measures nothing — its
// output is a verdict. It runs entirely in virtual time on the simulator,
// so it never perturbs the wall-clock results in results_full.txt.
//
// Every run deploys through core.DeployShards and drives every client
// through a shard.Router. An unsharded run is one shard: the deployment
// keeps the plain node IDs and the router is a transparent shim over one
// client gateway. Generated runs start from a row of ChaosPresets.
type ChaosConfig struct {
	Seed int64

	// Shards counts share-nothing deployments on the one runtime (default
	// 1). Each shard has its own recorder, trace and oracle report.
	Shards int
	// Primaries counts serving primaries per shard (the sequencer is
	// extra, as in Fig4Config); Secondaries the secondary group. Defaults 3
	// and 5: nine replicas per shard.
	Primaries   int
	Secondaries int
	// Clients is the number of closed-loop clients (default 2). Client i
	// is pinned to shard i%Shards and uses staleness bound i%3*2 — a strict
	// read-your-writes client plus looser ones that exercise secondary
	// reads and deferrals.
	Clients int

	// Requests per client (default 120), alternating Set/Get with
	// RequestDelay think time (default 50ms).
	Requests     int
	RequestDelay time.Duration

	// LUI is the lazy update interval T_L (default 250ms — short, so
	// deferred reads resolve quickly and the run stays cheap).
	LUI time.Duration

	// ServiceMean simulates background load: per-request service times
	// with this mean and a chaosServiceStd deviation (default 10ms). A
	// negative ServiceMean disables the service-delay model and arms the
	// frontier-read fast path, which only engages when reads carry no
	// simulated service cost.
	ServiceMean time.Duration

	// AssignBatch/AssignBatchWindow enable batched GSN assignment at the
	// sequencer. The batching acceptance tests run the full chaos oracle
	// suite with these on — including sequencer kills that land mid-batch.
	AssignBatch       int
	AssignBatchWindow time.Duration

	// Faults sets the generator's fault rates; generated schedules target
	// shard 0's topology. Zero Horizon defaults to ~70% of the expected
	// workload duration so faults land amid traffic.
	Faults chaos.GenConfig

	// Schedule, if non-nil, is injected verbatim instead of generating one
	// from Faults — the acceptance tests pin exact scenarios with it.
	Schedule chaos.Schedule

	// MoveAt, when positive, runs a live shard split at that instant: the
	// migration client m00 writes a shard-0 key, moves its ring position to
	// shard 1, and reads it back through the new owner. Needs Shards >= 2.
	MoveAt time.Duration

	// Durable gives every replica a WAL + snapshot store; SnapshotEvery is
	// its compaction threshold (0 = replica default). With Durable on, the
	// schedule's restart_recover events rebuild replicas from their own
	// durable media instead of blank state, and every generated restart is
	// a restart_recover.
	Durable       bool
	SnapshotEvery int

	// ReplicatedAssign enables majority-floor replicated GSN ordering, so
	// sequencer kills leave no assignment holes behind released commits.
	ReplicatedAssign bool

	// Mutate, if set, runs on every shard's deployment after deployment and
	// before the run starts — tests use it to reach media or gateways.
	Mutate func(d *core.Deployment)

	// Wrap, if set, is applied to every replica node the run registers — at
	// deploy and on every restart, before the node's Init — and the node it
	// returns is what the runtime drives. The oracle-sensitivity tests plant
	// their deliberate bugs through it (a node that rewrites what it
	// receives, media cut before a recovering incarnation reads it), so no
	// planted bug lives in production code.
	Wrap func(id node.ID, n node.Node) node.Node
}

const (
	// chaosServiceStd is the service-time deviation around ServiceMean.
	chaosServiceStd = 5 * time.Millisecond
	// movedValue is what the split's migration client writes before the
	// move and must read back from the new owner, shard moveTo.
	movedValue = "moved"
	moveTo     = 1
)

// ChaosPreset is one row of the chaos table: a name and the configuration
// its runs start from, crossed with fault kinds by With.
type ChaosPreset struct {
	Name   string
	Config ChaosConfig
}

// ChaosPresets is the chaos table, in the order aquabench runs it: plain
// (the paper's sequencer), durable (WAL + replicated ordering; generated
// restarts recover), batched (batched assignment + fast reads), and sharded.
// Only hand-placed scenarios build their own ChaosConfig.
//
// The sharded row's fixed schedule ignores fault kinds: two shards of a
// sequencer, three serving primaries and two secondaries, two clients
// pinned to each; shard 0's sequencer down 400–900ms and a live split at
// 600ms, inside the outage. Its claims: every shard's invariants hold
// independently, the other shard keeps completing requests through the
// outage, and the moved key keeps read-your-writes at its new owner.
func ChaosPresets() []ChaosPreset {
	return []ChaosPreset{
		{"plain", ChaosConfig{}},
		{"durable", ChaosConfig{Durable: true, SnapshotEvery: 8, ReplicatedAssign: true}},
		{"batched", ChaosConfig{ServiceMean: -1, AssignBatch: 16, AssignBatchWindow: 2 * time.Millisecond}},
		{"sharded", ChaosConfig{
			Shards:       2,
			Secondaries:  2,
			Clients:      4,
			Requests:     60,
			RequestDelay: 20 * time.Millisecond,
			ServiceMean:  -1,
			Schedule: chaos.Schedule{
				{At: 400 * time.Millisecond, Action: chaos.ActCrash, Target: "sh0-p00"},
				{At: 900 * time.Millisecond, Action: chaos.ActRestart, Target: "sh0-p00"},
			},
			MoveAt: 600 * time.Millisecond,
		}},
	}
}

// With returns the row's configuration with the given fault kinds and
// request count; a row with a fixed Schedule ignores the faults.
func (p ChaosPreset) With(faults chaos.GenConfig, requests int) ChaosConfig {
	p.Config.Faults, p.Config.Requests = faults, requests
	return p.Config
}

// wrapRuntime registers every replica gateway through ChaosConfig.Wrap.
type wrapRuntime struct {
	rt   core.Runtime
	wrap func(node.ID, node.Node) node.Node
}

func (w wrapRuntime) Register(id node.ID, n node.Node) {
	if _, ok := n.(*replica.Gateway); ok {
		n = w.wrap(id, n)
	}
	w.rt.Register(id, n)
}

func (c *ChaosConfig) setDefaults() {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Primaries == 0 {
		c.Primaries = 3
	}
	if c.Secondaries == 0 {
		c.Secondaries = 5
	}
	if c.Clients == 0 {
		c.Clients = 2
	}
	if c.Requests == 0 {
		c.Requests = 120
	}
	if c.RequestDelay == 0 {
		c.RequestDelay = 50 * time.Millisecond
	}
	if c.LUI == 0 {
		c.LUI = 250 * time.Millisecond
	}
	if c.ServiceMean == 0 {
		c.ServiceMean = 10 * time.Millisecond
	}
	if c.Faults.Horizon == 0 {
		// Expected per-request time ≈ think time + service, two requests per
		// Set/Get pair; 70% keeps repairs inside the traffic window too.
		c.Faults.Horizon = time.Duration(c.Requests) * (c.RequestDelay + 2*c.ServiceMean) * 7 / 10
	}
}

// ChaosResult is one chaos run's verdict.
type ChaosResult struct {
	Seed int64
	// Reports holds each shard's oracle report; Traces each shard's
	// byte-stable oracle trace — what the determinism tests compare across
	// parallelism levels.
	Reports []check.Report
	Traces  [][]byte
	// Schedule is the fault schedule that ran (generated or supplied).
	Schedule chaos.Schedule
	// Requests counts completed client invocations; Failed those that
	// errored (retries exhausted). Done reports whether every client
	// finished its quota before the virtual-time cap. Events is the total
	// oracle-trace length.
	Requests int
	Failed   int
	Done     bool
	Events   int
	// OutageCompletions counts client completions on other shards between
	// a shard sequencer's crash and its restart in the schedule — nonzero
	// proves the kill did not stall the rest of the fleet.
	OutageCompletions int
	// Split is the live split's outcome (nil without MoveAt).
	Split *ChaosSplit
	// FastServed sums frontier fast-path reads across replicas — nonzero
	// proves a fast-path run actually exercised the hot path.
	FastServed uint64
	// Recovered maps each replica to the durable frontier its final
	// incarnation replayed at Init (absent when it never recovered).
	Recovered map[node.ID]uint64
	// AppStates holds each replica's final application snapshot — what the
	// adversarial recovery tests compare byte-for-byte against a
	// never-crashed reference run.
	AppStates map[node.ID][]byte
}

// ChaosSplit is a live split's outcome: whether the migration installed,
// what the post-move read of the moved key returned, and which shard
// served it (-1 if the read never completed).
type ChaosSplit struct {
	Installed bool
	Value     string
	Owner     int
}

// OK reports whether every shard's invariants held and a requested split
// installed and read its write back from the new owner.
func (r *ChaosResult) OK() bool {
	for i := range r.Reports {
		if !r.Reports[i].OK() {
			return false
		}
	}
	return r.Split == nil || *r.Split == ChaosSplit{Installed: true, Value: movedValue, Owner: moveTo}
}

// routedClient registers a shard router plus its workload as one runtime
// node.
type routedClient struct {
	r   *shard.Router
	run func(node.Context)
}

func (rc *routedClient) Init(ctx node.Context) {
	rc.r.Init(ctx)
	rc.run(ctx)
}

func (rc *routedClient) Recv(from node.ID, m node.Message) { rc.r.Recv(from, m) }

// chaosDriver issues total alternating Set/Get requests for key through r
// in a closed loop, reporting each completion to rec. Seq bookkeeping
// relies on the gateway assigning sequence numbers in Invoke order starting
// at 1 — the key never leaves its shard, so one gateway carries the loop.
func chaosDriver(r *shard.Router, rec *check.Recorder, total int, think time.Duration, key string, onDone func()) func(node.Context) {
	return func(ctx node.Context) {
		var issue func(k int)
		issue = func(k int) {
			if k >= total {
				onDone()
				return
			}
			seq := uint64(k + 1)
			readOnly := k%2 == 1
			done := func(res client.Result) {
				rec.ClientResult(ctx.ID(), seq, readOnly, res.Err != "")
				ctx.Post(think, func() { issue(k + 1) })
			}
			if readOnly {
				r.Invoke("Get", []byte(key), done)
			} else {
				r.Invoke("Set", []byte(fmt.Sprintf("%s=%d", key, k)), done)
			}
		}
		stagger := time.Duration(ctx.Rand().Int63n(int64(think) + 1))
		ctx.Post(stagger, func() { issue(0) })
	}
}

// keyOwnedBy returns the first of tag, tag0, tag1, … the map homes on owner
// whose ring position is not in avoid. The bare tag comes first, so a
// one-shard run keeps the keys doc0, doc1, ….
func keyOwnedBy(m *shard.Map, owner int, tag string, avoid map[uint32]bool) string {
	for j := -1; j < 100000; j++ {
		k := tag
		if j >= 0 {
			k = fmt.Sprintf("%s%d", tag, j)
		}
		if h := shard.Hash(k); m.OwnerOf(h) == owner && !avoid[h] {
			return k
		}
	}
	panic("experiment: no key found for shard " + fmt.Sprint(owner))
}

// chaosObs fans injector fault notifications to the owning shard's
// recorder, so each shard's trace carries exactly its own faults.
type chaosObs struct {
	sd   *core.ShardedDeployment
	recs []*check.Recorder
}

func (o *chaosObs) Crash(id node.ID) {
	if i := o.sd.Owner(id); i >= 0 {
		o.recs[i].Crash(id)
	}
}

func (o *chaosObs) Restart(id node.ID) {
	if i := o.sd.Owner(id); i >= 0 {
		o.recs[i].Restart(id)
	}
}

func (o *chaosObs) Fault(note string) {
	for _, r := range o.recs {
		r.Fault(note)
	}
}

// outageCompletions counts client completions recorded on shards other
// than the one whose sequencer is down, over every crash→restart window of
// a shard's sequencer in sched.
func outageCompletions(sd *core.ShardedDeployment, sched chaos.Schedule, recs []*check.Recorder) int {
	type outage struct {
		shard    int
		from, to time.Duration
	}
	var outages []outage
	for _, crash := range sched {
		i := sd.Owner(crash.Target)
		if crash.Action != chaos.ActCrash || i < 0 || sd.Shards[i].Sequencer != crash.Target {
			continue
		}
		o := outage{shard: i, from: crash.At, to: -1}
		for _, ev := range sched {
			restart := ev.Action == chaos.ActRestart || ev.Action == chaos.ActRestartRecover
			if restart && ev.Target == crash.Target && ev.At >= crash.At && (o.to < 0 || ev.At < o.to) {
				o.to = ev.At
			}
		}
		if o.to >= 0 {
			outages = append(outages, o)
		}
	}
	n := 0
	for i, rec := range recs {
		for _, e := range rec.Events() {
			if e.Kind != check.KindClient {
				continue
			}
			for _, o := range outages {
				if o.shard != i && e.At >= o.from && e.At <= o.to {
					n++
					break
				}
			}
		}
	}
	return n
}

// RunChaosPoint executes one chaos run and returns its verdict. Identical
// configs (same seed, same fault rates or schedule) produce byte-identical
// traces and identical reports, on any machine, at any sweep parallelism.
func RunChaosPoint(cfg ChaosConfig) ChaosResult {
	cfg.setDefaults()

	s := sim.NewScheduler(cfg.Seed)
	faults := chaos.NewNetFaults(netsim.UniformDelay{
		Min: 500 * time.Microsecond,
		Max: 2 * time.Millisecond,
	}, netsim.NoLoss{})
	rt := sim.NewRuntime(s, sim.WithDelay(faults), sim.WithLoss(faults))

	// Every router host must be known to the replicas as a client, or perf
	// broadcasts and failover announcements never reach it.
	var clientIDs []node.ID
	for i := 0; i < cfg.Clients; i++ {
		clientIDs = append(clientIDs, node.ID(fmt.Sprintf("c%02d", i)))
	}
	if cfg.MoveAt > 0 {
		clientIDs = append(clientIDs, "m00")
	}
	svc := core.ServiceConfig{
		Primaries:         cfg.Primaries + 1, // + sequencer
		Secondaries:       cfg.Secondaries,
		LazyInterval:      cfg.LUI,
		Group:             group.DefaultConfig(),
		NewApp:            func() app.Application { return apps.NewKVStore() },
		AssignBatch:       cfg.AssignBatch,
		AssignBatchWindow: cfg.AssignBatchWindow,
		FastReads:         cfg.ServiceMean < 0,
		Durable:           cfg.Durable,
		SnapshotEvery:     cfg.SnapshotEvery,
		ReplicatedAssign:  cfg.ReplicatedAssign,
		ExtraClients:      clientIDs,
	}
	if cfg.ServiceMean >= 0 {
		svc.ServiceDelay = func(r *rand.Rand) time.Duration {
			return stats.TruncNormalDuration(r, cfg.ServiceMean, chaosServiceStd, 0)
		}
	}

	wrap := cfg.Wrap
	if wrap == nil {
		wrap = func(_ node.ID, n node.Node) node.Node { return n }
	}
	recs := make([]*check.Recorder, cfg.Shards)
	sd, err := core.DeployShards(wrapRuntime{rt: rt, wrap: wrap}, svc, cfg.Shards, func(i int, s2 *core.ServiceConfig) {
		rec := check.NewRecorder(sim.Epoch, s.Now)
		recs[i] = rec
		s2.OnApply = rec.Apply
		s2.OnServeRead = rec.ServeRead
		s2.OnRestore = rec.Restore
		if cfg.Durable {
			s2.OnRecover = rec.Recover
		}
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: chaos deploy: %v", err)) // static config bug
	}
	if cfg.Mutate != nil {
		for _, d := range sd.Shards {
			cfg.Mutate(d)
		}
	}

	clientCfg := func(staleness int) client.Config {
		return core.ClientGatewayConfig(svc, core.ClientConfig{
			Spec: qos.Spec{
				Staleness: staleness,
				Deadline:  200 * time.Millisecond,
				MinProb:   0.5,
			},
			Methods: qos.NewMethods("Get", "Version"),
			// Faults are the point here: retry briskly so the workload
			// survives crashes and partitions instead of stalling on them.
			RetryInterval: 150 * time.Millisecond,
			MaxRetries:    100,
		})
	}

	// The split moves exactly the migration key's ring position, so client
	// keys avoid that position (and each other's) and never re-home.
	ring := shard.NewUniform(cfg.Shards)
	avoid := make(map[uint32]bool)
	var moveKey string
	if cfg.MoveAt > 0 {
		moveKey = keyOwnedBy(ring, 0, "mig", nil)
		avoid[shard.Hash(moveKey)] = true
	}

	var doneCount int
	for i := 0; i < cfg.Clients; i++ {
		home := i % cfg.Shards
		key := keyOwnedBy(ring, home, fmt.Sprintf("doc%d", i), avoid)
		avoid[shard.Hash(key)] = true
		// Client 0 reads with a=0 (strict read-your-writes, primaries only);
		// the others tolerate growing staleness, spreading reads onto
		// secondaries where deferral happens.
		r := shard.New(shard.Config{Shards: sd.Infos, Client: clientCfg((i % 3) * 2)})
		rt.Register(clientIDs[i], &routedClient{r: r, run: chaosDriver(r, recs[home], cfg.Requests,
			cfg.RequestDelay, key, func() { doneCount++ })})
	}

	// The migration client runs the live split: write, move the key's range
	// to the new owner while the write may still be in flight (and its
	// source shard may be mid failover), then read back through the router.
	var split *ChaosSplit
	if cfg.MoveAt > 0 {
		split = &ChaosSplit{Owner: -1}
		moveHash := uint64(shard.Hash(moveKey))
		mr := shard.New(shard.Config{Shards: sd.Infos, Client: clientCfg(0)})
		rt.Register("m00", &routedClient{r: mr, run: func(ctx node.Context) {
			ctx.SetTimer(cfg.MoveAt, func() {
				mr.Invoke("Set", []byte(moveKey+"="+movedValue), nil)
				if err := mr.Move(moveHash, moveHash+1, moveTo, func(*shard.Map) { split.Installed = true }); err != nil {
					panic(fmt.Sprintf("experiment: chaos split: %v", err)) // static config bug
				}
				mr.Invoke("Get", []byte(moveKey), func(res client.Result) {
					split.Value = string(res.Payload)
					split.Owner = sd.Owner(res.Replica)
				})
			})
		}})
	}
	rt.Start()

	sched := cfg.Schedule
	if sched == nil {
		// The generator gets its own seed-derived stream: fault placement
		// must not steal draws from the simulation's node/net streams.
		gen := rand.New(rand.NewSource(cfg.Seed ^ 0x5eedFa17))
		d := sd.Shards[0]
		sched = chaos.Generate(gen, chaos.Topology{
			Sequencer:   d.Sequencer,
			Primaries:   d.ServingPrimaries,
			Secondaries: d.Secondaries,
			Clients:     d.ClientIDs,
		}, cfg.Faults)
		// A durable run's generated restarts keep their media. Rewriting
		// the actions draws no randomness, so the schedule is unchanged.
		for i := range sched {
			if cfg.Durable && sched[i].Action == chaos.ActRestart {
				sched[i].Action = chaos.ActRestartRecover
			}
		}
	}
	restart := func(recovered bool) func(node.ID) (node.Node, error) {
		return func(id node.ID) (node.Node, error) {
			i := sd.Owner(id)
			if i < 0 {
				return nil, fmt.Errorf("experiment: %q is not a replica of any shard", id)
			}
			build := sd.Shards[i].NewReplicaGateway
			if recovered {
				build = sd.Shards[i].NewRecoveredReplicaGateway
			}
			gw, err := build(id)
			if err != nil {
				return nil, err
			}
			return wrap(id, gw), nil
		}
	}
	inj := &chaos.Injector{
		RT:             rt,
		Faults:         faults,
		Fresh:          restart(false),
		FreshRecovered: restart(true),
		Obs:            &chaosObs{sd: sd, recs: recs},
	}
	inj.Install(sched)

	// Run until every client finishes, with a virtual-time cap covering the
	// workload plus fault downtime and retries.
	perRequest := cfg.RequestDelay + 4*cfg.ServiceMean + cfg.LUI/4 + 500*time.Millisecond
	capAt := time.Duration(cfg.Requests+10)*perRequest*2 + 2*cfg.Faults.Horizon
	for elapsed := time.Duration(0); doneCount < cfg.Clients && elapsed < capAt; elapsed += time.Minute {
		s.RunFor(time.Minute)
	}
	s.RunFor(5 * time.Second) // drain stragglers and the split's read

	res := ChaosResult{
		Seed:              cfg.Seed,
		Schedule:          sched,
		Done:              doneCount == cfg.Clients,
		OutageCompletions: outageCompletions(sd, sched, recs),
		Split:             split,
		Recovered:         make(map[node.ID]uint64),
		AppStates:         make(map[node.ID][]byte),
	}
	for _, rec := range recs {
		events := rec.Events()
		res.Events += len(events)
		for i := range events {
			if events[i].Kind == check.KindClient {
				res.Requests++
				if events[i].Failed {
					res.Failed++
				}
			}
		}
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			panic(fmt.Sprintf("experiment: chaos trace: %v", err)) // bytes.Buffer cannot fail
		}
		res.Reports = append(res.Reports, check.Run(events))
		res.Traces = append(res.Traces, buf.Bytes())
	}
	for _, d := range sd.Shards {
		for id, g := range d.Replicas {
			res.FastServed += g.FastServed()
			if r := g.Recovered(); r > 0 {
				res.Recovered[id] = r
			}
			if snap, err := g.App().Snapshot(); err == nil {
				res.AppStates[id] = snap
			}
		}
	}
	return res
}

// RunChaosSweep runs base at seeds seed..seed+runs-1, fanned across the
// package's worker pool like every other sweep. Each point is
// self-contained, so results are identical at any parallelism.
func RunChaosSweep(base ChaosConfig, seed int64, runs int) []ChaosResult {
	points := make([]ChaosConfig, runs)
	for i := range points {
		points[i] = base
		points[i].Seed = seed + int64(i)
	}
	return runPoints(points, RunChaosPoint)
}

// WriteChaosTable renders a sweep of the named row's verdicts, one line per
// seed, with the full per-invariant report for any failing run. A sharded
// run's line adds its shard count and outage completions, a split run's
// line the split's outcome, and a failing report is headed by its shard.
// Output is deterministic.
func WriteChaosTable(w io.Writer, name string, results []ChaosResult) error {
	var b bytes.Buffer // cannot fail, so only the final write is checked
	fmt.Fprintf(&b, "# chaos sweep %s: %d runs\n", name, len(results))
	for i := range results {
		r := &results[i]
		status := "PASS"
		if !r.OK() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "seed=%-6d %s faults=%d requests=%d failed=%d events=%d done=%t",
			r.Seed, status, len(r.Schedule), r.Requests, r.Failed, r.Events, r.Done)
		sharded := len(r.Reports) > 1
		if sharded {
			fmt.Fprintf(&b, " shards=%d outage=%d", len(r.Reports), r.OutageCompletions)
		}
		if r.Split != nil {
			fmt.Fprintf(&b, " split=%t read=%q@shard%d", r.Split.Installed, r.Split.Value, r.Split.Owner)
		}
		b.WriteByte('\n')
		for s := range r.Reports {
			if r.Reports[s].OK() {
				continue
			}
			if sharded {
				fmt.Fprintf(&b, "shard %d:\n", s)
			}
			r.Reports[s].Write(&b)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
