package main

import (
	"fmt"
	"math/rand"
	"strconv"
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
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/selection"
	"aqua/internal/shard"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wal"
)

// sim-paper-faults: the paper's replica group, twice (two shards), in
// virtual time, with a sequencer kill and a durable restart in the middle.
// No sockets, disk or goroutines are involved; selection, the repository,
// stats, the group substrate, the shard router and the simulator do the
// work, and it is the only workload that injects a fault.
//
// One repetition is a fixed 150 virtual seconds. A run repeats it with
// seeds derived from --seed until --seconds of wall clock have passed: the
// virtual-time metrics come from the first simFixedReps repetitions only
// (so they repeat exactly for a seed, whatever the host's speed), the
// wall-clock metrics (goodput, CPU per op, set-up) from all of them.
const (
	simShards      = 2
	simPrimaries   = 5 // sequencer + 4 serving primaries, per shard
	simSecondaries = 6
	simClients     = 8
	simStaleness   = 2
	simDeadline    = 200 * time.Millisecond
	simThink       = time.Second
	simLUI         = 2 * time.Second
	simWindow      = 20
	simRetry       = 400 * time.Millisecond

	// The probe issues one update to shard 0 on a schedule, whether or not
	// earlier ones were answered, so requests due while no sequencer exists
	// are counted. (ISSUE 12 sketched one every 50 ms; with the paper's
	// N(100 ms, 50 ms) single-server replicas that is twice what a primary
	// can apply, so the probe runs at 2/s and the outage is timed from the
	// kill to the first probe served, not in probe periods.)
	simProbeEvery  = time.Second
	simProbeOffset = 500 * time.Millisecond

	simKillAt    = 60 * time.Second  // shard 0's sequencer dies and stays dead
	simCrashAt   = 119 * time.Second // one serving primary of shard 0 crashes...
	simRecoverAt = 120 * time.Second // ...and restarts from its WAL
	simEnd       = 150 * time.Second
	simDrain     = 10 * time.Second

	simFixedReps = 12
)

// simRep is one repetition's observations.
type simRep struct {
	setup     time.Duration
	wall      time.Duration
	cpu       time.Duration
	attempted int
	failed    int
	completed int

	readMS, updateMS []float64 // virtual, the closed-loop clients only
	reads, timely    int
	selected         int
	answered         int
	unavailableMS    float64
	catchupMS        float64
	events, msgs     uint64
	violations       []string

	// Traced repetitions only.
	retries      float64
	invokeNS     []float64
	selectUS     []float64
	candidates   float64
	selectCalls  float64
	cal          calibration
	walAppends   float64
	walBytes     float64
	walSyncs     float64
	walSnapshots float64
	updatesDone  int
	recoverMS    float64
	recoverRecs  int
}

// routedNode registers a shard router and its workload as one node.
type routedNode struct {
	r   *shard.Router
	run func(ctx node.Context)
}

func (n *routedNode) Init(ctx node.Context) {
	n.r.Init(ctx)
	n.run(ctx)
}

func (n *routedNode) Recv(from node.ID, m node.Message) { n.r.Recv(from, m) }

// simObs fans injected faults to the owning shard's recorder.
type simObs struct {
	sd   *core.ShardedDeployment
	recs []*check.Recorder
}

func (o *simObs) Crash(id node.ID) {
	if i := o.sd.Owner(id); i >= 0 {
		o.recs[i].Crash(id)
	}
}

func (o *simObs) Restart(id node.ID) {
	if i := o.sd.Owner(id); i >= 0 {
		o.recs[i].Restart(id)
	}
}

func (o *simObs) Fault(note string) {
	for _, r := range o.recs {
		r.Fault(note)
	}
}

// keysOn returns n keys the uniform map homes on the given shard.
func keysOn(m *shard.Map, owner int, tag string, n int) []string {
	var out []string
	for j := 0; len(out) < n; j++ {
		if k := tag + strconv.Itoa(j); m.Owner(k) == owner {
			out = append(out, k)
		}
	}
	return out
}

// parseSimValue reads back the "<key>=<n>" convention's value.
func parseSimValue(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return strconv.Atoi(string(p))
}

// runSimRep runs one repetition.
func runSimRep(seed int64, traced bool) (*simRep, error) {
	rep := &simRep{}
	t0 := time.Now()
	cpu0 := cpuTime()

	s := sim.NewScheduler(seed)
	faults := chaos.NewNetFaults(netsim.UniformDelay{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond}, netsim.NoLoss{})
	rt := sim.NewRuntime(s, sim.WithDelay(faults), sim.WithLoss(faults))

	var clientIDs []node.ID
	for i := 0; i < simClients; i++ {
		clientIDs = append(clientIDs, node.ID(fmt.Sprintf("c%02d", i)))
	}
	const probeID = node.ID("probe")
	clientIDs = append(clientIDs, probeID)

	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	recs := make([]*check.Recorder, simShards)
	svc := core.ServiceConfig{
		Primaries:    simPrimaries,
		Secondaries:  simSecondaries,
		LazyInterval: simLUI,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
		ServiceDelay: func(r *rand.Rand) time.Duration {
			return stats.TruncNormalDuration(r, 100*time.Millisecond, 50*time.Millisecond, 0)
		},
		Durable:          true,
		ReplicatedAssign: true,
		ExtraClients:     clientIDs,
	}
	sd, err := core.DeployShards(rt, svc, simShards, func(i int, sc *core.ServiceConfig) {
		rec := check.NewRecorder(sim.Epoch, s.Now)
		recs[i] = rec
		sc.OnApply = rec.Apply
		sc.OnServeRead = rec.ServeRead
		sc.OnRestore = rec.Restore
		sc.OnRecover = rec.Recover
	})
	if err != nil {
		return nil, fmt.Errorf("sim deploy: %w", err)
	}

	ring := shard.NewUniform(simShards)
	var sel *tracedSelector
	clientCfg := client.Config{
		Spec:          qos.Spec{Staleness: simStaleness, Deadline: simDeadline, MinProb: readMinProb},
		Methods:       qos.NewMethods("Get", "Version"),
		WindowSize:    simWindow,
		Group:         core.DefaultsForClient(),
		RetryInterval: simRetry,
		MaxRetries:    100,
		Obs:           reg,
	}
	if traced {
		// One selector decorator serves every router: the simulator runs
		// all nodes on one goroutine.
		sel = &tracedSelector{inner: selection.Algorithm1{}}
		clientCfg.Selector = sel
	}

	fail := func(format string, args ...interface{}) {
		rep.failed++
		if len(rep.violations) < 8 {
			rep.violations = append(rep.violations, fmt.Sprintf(format, args...))
		}
	}
	outstanding := 0
	end := sim.Epoch.Add(simEnd)

	// invoke routes one request, keeps the per-shard sequence the oracles
	// need (each shard's gateway numbers its own invocations from 1), and
	// times the router call on a traced repetition.
	invoke := func(r *shard.Router, shardSeq []uint64, id node.ID, method string, key string, payload []byte,
		done func(res client.Result)) {
		sh := ring.Owner(key)
		shardSeq[sh]++
		seq := shardSeq[sh]
		readOnly := method == "Get"
		rep.attempted++
		outstanding++
		cb := func(res client.Result) {
			outstanding--
			rep.completed++
			recs[sh].ClientResult(id, seq, readOnly, res.Err != "")
			done(res)
		}
		if !traced {
			r.Invoke(method, payload, cb)
			return
		}
		w0 := time.Now()
		r.Invoke(method, payload, cb)
		rep.invokeNS = append(rep.invokeNS, float64(time.Since(w0)))
	}

	for i := 0; i < simClients; i++ {
		id := clientIDs[i]
		r := shard.New(shard.Config{Shards: sd.Infos, Client: clientCfg})
		var keys []string
		for sh := 0; sh < simShards; sh++ {
			keys = append(keys, keysOn(ring, sh, fmt.Sprintf("doc%d-%d-", i, sh), 2)...)
		}
		wrote := make(map[string]int)
		acked := make(map[string]int)
		shardSeq := make([]uint64, simShards)
		rt.Register(id, &routedNode{r: r, run: func(ctx node.Context) {
			var issue func(k int)
			issue = func(k int) {
				if !ctx.Now().Before(end) {
					return
				}
				key := keys[(k/2)%len(keys)]
				issued := ctx.Now()
				if k%2 == 0 {
					wrote[key]++
					version := wrote[key]
					invoke(r, shardSeq, id, "Set", key, []byte(key+"="+strconv.Itoa(version)), func(res client.Result) {
						if res.Err != "" {
							fail("%s update %s: %s", id, key, res.Err)
						} else {
							rep.updateMS = append(rep.updateMS, float64(ctx.Now().Sub(issued))/1e6)
							rep.updatesDone++
							if version > acked[key] {
								acked[key] = version
							}
						}
						ctx.Post(simThink, func() { issue(k + 1) })
					})
					return
				}
				need := acked[key]
				rep.reads++
				predicted := -1.0
				invoke(r, shardSeq, id, "Get", key, []byte(key), func(res client.Result) {
					lat := ctx.Now().Sub(issued)
					got, err := parseSimValue(res.Payload)
					ok := true
					switch {
					case res.Err != "":
						fail("%s read %s: %s", id, key, res.Err)
						ok = false
					case err != nil:
						fail("%s read %s: malformed value %q", id, key, res.Payload)
						ok = false
					case got+simStaleness < need:
						fail("%s read %s returned %d, behind its own acknowledged write %d (a=%d)", id, key, got, need, simStaleness)
						ok = false
					}
					timely := ok && lat <= simDeadline
					if ok {
						rep.readMS = append(rep.readMS, float64(lat)/1e6)
						rep.answered++
						rep.selected += res.Selected
					}
					if timely {
						rep.timely++
					}
					rep.cal.add(predicted, timely)
					ctx.Post(simThink, func() { issue(k + 1) })
				})
				if sel != nil {
					predicted = sel.lastPK
				}
			}
			ctx.Post(time.Duration(ctx.Rand().Int63n(int64(simThink)+1)), func() { issue(0) })
		}})
	}

	// The probe: scheduled updates to one shard-0 key.
	firstServedAfterKill := time.Duration(-1)
	{
		r := shard.New(shard.Config{Shards: sd.Infos, Client: clientCfg})
		key := keysOn(ring, 0, "probe-", 1)[0]
		shardSeq := make([]uint64, simShards)
		rt.Register(probeID, &routedNode{r: r, run: func(ctx node.Context) {
			var tick func(k int)
			tick = func(k int) {
				if !ctx.Now().Before(end) {
					return
				}
				due := ctx.Now().Sub(sim.Epoch)
				invoke(r, shardSeq, probeID, "Set", key, []byte(key+"="+strconv.Itoa(k)), func(res client.Result) {
					if res.Err != "" {
						fail("probe update due at %v: %s", due, res.Err)
						return
					}
					served := ctx.Now().Sub(sim.Epoch)
					if due > simKillAt && (firstServedAfterKill < 0 || served < firstServedAfterKill) {
						firstServedAfterKill = served
					}
				})
				ctx.Post(simProbeEvery, func() { tick(k + 1) })
			}
			ctx.Post(simProbeOffset, func() { tick(0) })
		}})
	}

	rt.Start()
	rep.setup = time.Since(t0)

	shard0 := sd.Shards[0]
	victim := shard0.ServingPrimaries[2]
	inj := &chaos.Injector{
		RT:     rt,
		Faults: faults,
		FreshRecovered: func(id node.ID) (node.Node, error) {
			return shard0.NewRecoveredReplicaGateway(id)
		},
		Obs: &simObs{sd: sd, recs: recs},
	}
	inj.Install(chaos.Schedule{
		{At: simKillAt, Action: chaos.ActCrash, Target: shard0.Sequencer},
		{At: simCrashAt, Action: chaos.ActCrash, Target: victim},
		{At: simRecoverAt, Action: chaos.ActRestartRecover, Target: victim},
	})

	// Catch-up: from the durable restart until the restarted primary's
	// commit position reaches the acting sequencer's.
	caughtUp := time.Duration(-1)
	var poll func()
	poll = func() {
		leader := shard0.ServingPrimaries[0] // lowest live primary once p00 is dead
		if shard0.Replicas[victim].CSN() >= shard0.Replicas[leader].CSN() {
			caughtUp = s.Now().Sub(sim.Epoch) - simRecoverAt
			return
		}
		s.Post(10*time.Millisecond, poll)
	}
	s.Post(simRecoverAt+10*time.Millisecond, poll)

	s.RunFor(simEnd)
	s.RunFor(simDrain)
	rep.wall = time.Since(t0)
	rep.cpu = cpuTime() - cpu0

	for i := 0; i < outstanding; i++ {
		fail("request unanswered %v after the run ended", simDrain)
	}
	if firstServedAfterKill < 0 {
		fail("no probe update due after the sequencer kill was ever served")
	} else {
		rep.unavailableMS = float64(firstServedAfterKill-simKillAt) / 1e6
	}
	if caughtUp < 0 {
		fail("restarted primary %s never caught up with the group", victim)
	} else {
		rep.catchupMS = float64(caughtUp) / 1e6
	}
	for i, rec := range recs {
		violations, _, idle := judge(rec.Events())
		for _, v := range violations {
			fail("shard %d: %s", i, v)
		}
		if i == 0 { // the faulted shard must exercise every oracle
			for _, name := range idle {
				fail("shard 0: oracle %s checked nothing", name)
			}
		}
	}
	rep.events = s.Events()
	rep.msgs, _ = rt.Stats()

	if traced {
		rep.selectUS = make([]float64, len(sel.selectUS))
		for i, v := range sel.selectUS {
			rep.selectUS[i] = float64(v)
		}
		rep.candidates, rep.selectCalls = float64(sel.candidates), float64(sel.calls)
		for _, smp := range reg.Snapshot() {
			if smp.Name == "aqua_client_retries_total" {
				rep.retries += smp.Value
			}
		}
		for _, d := range sd.Shards {
			for _, gw := range d.Replicas {
				if st := gw.DurableStore(); st != nil {
					a, b, sn, sy := st.Stats()
					rep.walAppends += float64(a)
					rep.walBytes += float64(b)
					rep.walSnapshots += float64(sn)
					rep.walSyncs += float64(sy)
				}
			}
		}
		// Recovery cost over the acting sequencer's final media.
		m := shard0.Media.Get(shard0.ServingPrimaries[0])
		w0 := time.Now()
		rec, err := wal.NewStore(m).Recover()
		rep.recoverMS = float64(time.Since(w0)) / 1e6
		if err != nil {
			fail("recover over the final media: %v", err)
		}
		rep.recoverRecs = len(rec.Records) + len(rec.Assigns)
	}
	return rep, nil
}

// simFixed is how many repetitions feed the virtual-time metrics: always
// simFixedReps, except at smoke-test scale.
func simFixed(seconds float64) int {
	if seconds < 5 {
		return 1
	}
	return simFixedReps
}

// simSeed derives repetition r's simulator seed from the run seed.
func simSeed(seed int64, r int) int64 { return seed*1000 + int64(r) }

// runSimReps repeats the scenario until the wall-clock budget is spent (at
// least simFixedReps times) and returns every repetition.
func runSimReps(o runOpts) ([]*simRep, error) {
	fixed := simFixed(o.Seconds)
	var reps []*simRep
	start := time.Now()
	for r := 0; r < fixed || time.Since(start) < seconds(o.Seconds); r++ {
		rep, err := runSimRep(simSeed(o.Seed, r), o.Trace)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// simTotals folds repetitions into a result: counts and violations from all
// of them, virtual-time samples from the first `fixed`.
type simTotals struct {
	wall                     time.Duration
	attempted, failed, done  int
	events, msgs             uint64
	setups, goodputs, cpus   []float64 // one value per repetition
	readMS, updateMS         []float64
	reads, timely            int
	selected, answered       int
	unavailable, catchup     []float64
	violations               []string
	repCount, fixedRepsCount int
}

func foldSim(reps []*simRep, seconds float64) simTotals {
	t := simTotals{repCount: len(reps), fixedRepsCount: simFixed(seconds)}
	for i, r := range reps {
		t.wall += r.wall
		t.attempted += r.attempted
		t.failed += r.failed
		t.done += r.completed
		t.events += r.events
		t.msgs += r.msgs
		t.setups = append(t.setups, r.setup.Seconds())
		t.goodputs = append(t.goodputs, float64(r.completed)/r.wall.Seconds())
		t.cpus = append(t.cpus, ratio(float64(r.cpu)/1e3, float64(r.completed)))
		for _, v := range r.violations {
			t.violations = append(t.violations, fmt.Sprintf("rep %d: %s", i, v))
		}
		if i < t.fixedRepsCount {
			t.readMS = append(t.readMS, r.readMS...)
			t.updateMS = append(t.updateMS, r.updateMS...)
			t.reads += r.reads
			t.timely += r.timely
			t.selected += r.selected
			t.answered += r.answered
			t.unavailable = append(t.unavailable, r.unavailableMS)
			t.catchup = append(t.catchup, r.catchupMS)
		}
	}
	return t
}

func (t *simTotals) into(res *runResult) {
	res.Attempted = t.attempted
	res.Failed = t.failed
	res.Violations = append(res.Violations, t.violations...)
	res.note("%d repetitions of %v virtual (sequencer kill at %v, durable restart at %v); virtual-time metrics pool the first %d",
		t.repCount, simEnd, simKillAt, simRecoverAt, t.fixedRepsCount)
}

// runSim is the untraced sim-paper-faults run.
func runSim(o runOpts) (*runResult, error) {
	o.setDefaults()
	reps, err := runSimReps(o)
	if err != nil {
		return nil, err
	}
	t := foldSim(reps, o.Seconds)
	res := &runResult{Metrics: metricSet{}}
	t.into(res)
	ms := res.Metrics
	ms["setup_s"] = median(t.setups)
	ms["read_ms_p50"] = quantile(t.readMS, 0.50)
	ms["update_ms_p50"] = quantile(t.updateMS, 0.50)
	ms["timely_read_frac"] = ratio(float64(t.timely), float64(t.reads))
	ms["replicas_per_read"] = ratio(float64(t.selected), float64(t.answered))
	// Simulated completions per wall-clock second, and CPU per simulated
	// operation: medians over the repetitions, like the live windows.
	ms["goodput_ops_s"] = median(t.goodputs)
	ms["cpu_us_per_op"] = median(t.cpus)
	return res, nil
}
