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
type ChaosConfig struct {
	Seed int64

	// Primaries counts serving primaries (the sequencer is extra, as in
	// Fig4Config); Secondaries the secondary group. Defaults 3 and 5: nine
	// replicas total.
	Primaries   int
	Secondaries int
	// Clients is the number of closed-loop clients (default 2). Client i
	// uses staleness bound i%3*2 — a strict read-your-writes client plus
	// looser ones that exercise secondary reads and deferrals.
	Clients int

	// Requests per client (default 120), alternating Set/Get with
	// RequestDelay think time (default 50ms).
	Requests     int
	RequestDelay time.Duration

	// LUI is the lazy update interval T_L (default 250ms — short, so
	// deferred reads resolve quickly and the run stays cheap).
	LUI time.Duration

	// ServiceMean/ServiceStd simulate background load (defaults 10ms/5ms).
	// A negative ServiceMean disables the service-delay model entirely —
	// required to arm the frontier-read fast path, which only engages when
	// reads carry no simulated service cost.
	ServiceMean time.Duration
	ServiceStd  time.Duration

	// AssignBatch/AssignBatchWindow enable batched GSN assignment at the
	// sequencer; FastReads the frontier-read fast path. The batching
	// acceptance tests run the full chaos oracle suite with these on —
	// including sequencer kills that land mid-batch.
	AssignBatch       int
	AssignBatchWindow time.Duration
	FastReads         bool

	// Faults sets the generator's fault rates. Zero Horizon defaults to
	// ~70% of the expected workload duration so faults land amid traffic.
	Faults chaos.GenConfig

	// Schedule, if non-nil, is injected verbatim instead of generating one
	// from Faults — the acceptance tests pin exact scenarios with it.
	Schedule chaos.Schedule

	// Durable gives every replica a WAL + snapshot store; SnapshotEvery is
	// its compaction threshold (0 = replica default). With Durable on, the
	// schedule's restart_recover events rebuild replicas from their own
	// durable media instead of blank state.
	Durable       bool
	SnapshotEvery int

	// ReplicatedAssign enables majority-floor replicated GSN ordering, so
	// sequencer kills leave no assignment holes behind released commits.
	ReplicatedAssign bool

	// Mutate, if set, runs after deployment and before the run starts —
	// tests use it to reach the deployment's media or gateways.
	Mutate func(d *core.Deployment)

	// Wrap, if set, is applied to every replica node the run registers — at
	// deploy and on every restart, before the node's Init — and the node it
	// returns is what the runtime drives. The oracle-sensitivity tests plant
	// their deliberate bugs through it (a node that rewrites what it
	// receives, media cut before a recovering incarnation reads it), so no
	// planted bug lives in production code.
	Wrap func(id node.ID, n node.Node) node.Node
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
	if c.ServiceStd == 0 {
		c.ServiceStd = 5 * time.Millisecond
	}
	if c.Faults.Horizon == 0 {
		// Expected per-request time ≈ think time + service, two requests per
		// Set/Get pair; 70% keeps repairs inside the traffic window too.
		c.Faults.Horizon = time.Duration(c.Requests) * (c.RequestDelay + 2*c.ServiceMean) * 7 / 10
	}
}

// ChaosResult is one chaos run's verdict.
type ChaosResult struct {
	Seed   int64
	Report check.Report
	// Schedule is the fault schedule that ran (generated or supplied).
	Schedule chaos.Schedule
	// Requests counts completed client invocations; Failed those that
	// errored (retries exhausted). Done reports whether every client
	// finished its quota before the virtual-time cap.
	Requests int
	Failed   int
	Done     bool
	// Events is the oracle-trace length; Trace its byte-stable rendering —
	// what the determinism tests compare across parallelism levels.
	Events int
	Trace  []byte
	// FastServed sums frontier fast-path reads across replicas — nonzero
	// proves a FastReads run actually exercised the hot path.
	FastServed uint64
	// Recovered maps each replica to the durable frontier its final
	// incarnation replayed at Init (absent when it never recovered).
	Recovered map[node.ID]uint64
	// AppStates holds each replica's final application snapshot — what the
	// adversarial recovery tests compare byte-for-byte against a
	// never-crashed reference run.
	AppStates map[node.ID][]byte
}

// chaosDriver issues total alternating Set/Get requests in a closed loop,
// reporting each completion to the recorder. Seq bookkeeping relies on the
// gateway assigning sequence numbers in Invoke order starting at 1.
func chaosDriver(rec *check.Recorder, total int, think time.Duration, key string, onDone func()) func(node.Context, *client.Gateway) {
	return func(ctx node.Context, gw *client.Gateway) {
		var issue func(k int)
		issue = func(k int) {
			if k >= total {
				onDone()
				return
			}
			seq := uint64(k + 1)
			readOnly := k%2 == 1
			done := func(r client.Result) {
				rec.ClientResult(ctx.ID(), seq, readOnly, r.Err != "")
				ctx.Post(think, func() { issue(k + 1) })
			}
			if readOnly {
				gw.Invoke("Get", []byte(key), done)
			} else {
				gw.Invoke("Set", []byte(fmt.Sprintf("%s=%d", key, k)), done)
			}
		}
		stagger := time.Duration(ctx.Rand().Int63n(int64(think) + 1))
		ctx.Post(stagger, func() { issue(0) })
	}
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
	rec := check.NewRecorder(sim.Epoch, s.Now)

	svc := core.ServiceConfig{
		Primaries:    cfg.Primaries + 1, // + sequencer
		Secondaries:  cfg.Secondaries,
		LazyInterval: cfg.LUI,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
		ServiceDelay: func(r *rand.Rand) time.Duration {
			return stats.TruncNormalDuration(r, cfg.ServiceMean, cfg.ServiceStd, 0)
		},
		OnApply:     rec.Apply,
		OnServeRead: rec.ServeRead,
		OnRestore:   rec.Restore,
	}
	if cfg.ServiceMean < 0 {
		svc.ServiceDelay = nil
	}
	svc.AssignBatch = cfg.AssignBatch
	svc.AssignBatchWindow = cfg.AssignBatchWindow
	svc.FastReads = cfg.FastReads
	svc.Durable = cfg.Durable
	svc.SnapshotEvery = cfg.SnapshotEvery
	svc.ReplicatedAssign = cfg.ReplicatedAssign
	if cfg.Durable {
		svc.OnRecover = rec.Recover
	}

	var doneCount, completed, failed int
	clients := make([]core.ClientConfig, cfg.Clients)
	for i := range clients {
		id := node.ID(fmt.Sprintf("c%02d", i))
		clients[i] = core.ClientConfig{
			ID: id,
			// Client 0 reads with a=0 (strict read-your-writes, primaries
			// only); the others tolerate growing staleness, spreading reads
			// onto secondaries where deferral happens.
			Spec: qos.Spec{
				Staleness: (i % 3) * 2,
				Deadline:  200 * time.Millisecond,
				MinProb:   0.5,
			},
			Methods: qos.NewMethods("Get", "Version"),
			// Faults are the point here: retry briskly so the workload
			// survives crashes and partitions instead of stalling on them.
			RetryInterval: 150 * time.Millisecond,
			MaxRetries:    100,
			Driver: chaosDriver(rec, cfg.Requests, cfg.RequestDelay,
				fmt.Sprintf("doc%d", i), func() { doneCount++ }),
		}
	}

	wrap := cfg.Wrap
	if wrap == nil {
		wrap = func(_ node.ID, n node.Node) node.Node { return n }
	}
	d, err := core.Deploy(wrapRuntime{rt: rt, wrap: wrap}, svc, clients)
	if err != nil {
		panic(fmt.Sprintf("experiment: chaos deploy: %v", err)) // static config bug
	}
	if cfg.Mutate != nil {
		cfg.Mutate(d)
	}
	rt.Start()

	sched := cfg.Schedule
	if sched == nil {
		// The generator gets its own seed-derived stream: fault placement
		// must not steal draws from the simulation's node/net streams.
		gen := rand.New(rand.NewSource(cfg.Seed ^ 0x5eedFa17))
		sched = chaos.Generate(gen, chaos.Topology{
			Sequencer:   d.Sequencer,
			Primaries:   d.ServingPrimaries,
			Secondaries: d.Secondaries,
			Clients:     d.ClientIDs,
		}, cfg.Faults)
	}
	inj := &chaos.Injector{
		RT:     rt,
		Faults: faults,
		Fresh: func(id node.ID) (node.Node, error) {
			gw, err := d.NewReplicaGateway(id)
			if err != nil {
				return nil, err
			}
			return wrap(id, gw), nil
		},
		FreshRecovered: func(id node.ID) (node.Node, error) {
			gw, err := d.NewRecoveredReplicaGateway(id)
			if err != nil {
				return nil, err
			}
			return wrap(id, gw), nil
		},
		Obs: rec,
	}
	inj.Install(sched)

	// Run until every client finishes, with a virtual-time cap covering the
	// workload plus fault downtime and retries.
	perRequest := cfg.RequestDelay + 4*cfg.ServiceMean + cfg.LUI/4 + 500*time.Millisecond
	capAt := time.Duration(cfg.Requests+10)*perRequest*2 + 2*cfg.Faults.Horizon
	for elapsed := time.Duration(0); doneCount < cfg.Clients && elapsed < capAt; elapsed += time.Minute {
		s.RunFor(time.Minute)
	}
	s.RunFor(5 * time.Second) // drain stragglers

	events := rec.Events()
	for i := range events {
		if events[i].Kind == check.KindClient {
			completed++
			if events[i].Failed {
				failed++
			}
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		panic(fmt.Sprintf("experiment: chaos trace: %v", err)) // bytes.Buffer cannot fail
	}
	var fastServed uint64
	recovered := make(map[node.ID]uint64)
	appStates := make(map[node.ID][]byte)
	for id, g := range d.Replicas {
		fastServed += g.FastServed()
		if r := g.Recovered(); r > 0 {
			recovered[id] = r
		}
		if snap, err := g.App().Snapshot(); err == nil {
			appStates[id] = snap
		}
	}
	return ChaosResult{
		Seed:       cfg.Seed,
		Report:     check.Run(events),
		Schedule:   sched,
		Requests:   completed,
		Failed:     failed,
		Done:       doneCount == cfg.Clients,
		Events:     len(events),
		Trace:      buf.Bytes(),
		FastServed: fastServed,
		Recovered:  recovered,
		AppStates:  appStates,
	}
}

// RunChaosSweep runs one chaos point per seed, fanned across the package's
// worker pool like every other sweep. Each point is self-contained, so
// results are identical at any parallelism.
func RunChaosSweep(base ChaosConfig, seeds []int64) []ChaosResult {
	points := make([]ChaosConfig, len(seeds))
	for i, seed := range seeds {
		p := base
		p.Seed = seed
		points[i] = p
	}
	return runPoints(points, RunChaosPoint)
}

// WriteChaosTable renders a sweep's verdicts, one line per seed, with the
// full per-invariant report for any failing run. Output is deterministic.
func WriteChaosTable(w io.Writer, results []ChaosResult) error {
	if _, err := fmt.Fprintf(w, "# chaos sweep: %d runs\n", len(results)); err != nil {
		return err
	}
	for i := range results {
		r := &results[i]
		status := "PASS"
		if !r.Report.OK() {
			status = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "seed=%-6d %s faults=%d requests=%d failed=%d events=%d done=%t\n",
			r.Seed, status, len(r.Schedule), r.Requests, r.Failed, r.Events, r.Done); err != nil {
			return err
		}
		if !r.Report.OK() {
			if err := r.Report.Write(w); err != nil {
				return err
			}
		}
	}
	return nil
}
