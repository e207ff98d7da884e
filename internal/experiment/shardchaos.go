package experiment

import (
	"bytes"
	"fmt"
	"io"
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
	"aqua/internal/shard"
	"aqua/internal/sim"
)

// ShardChaosConfig parameterizes the sharded chaos scenario: N shards on one
// runtime, each with its own recorder and oracle trace; per-shard pinned
// clients driving traffic through shard routers; one shard's sequencer
// killed and restarted mid-run; and a live shard split (range move)
// re-homing a key while the source shard is still recovering. The scenario's
// claims: every shard's protocol invariants hold independently, the
// unaffected shards keep completing requests during the outage, and the
// moved key preserves read-your-writes across its re-homing.
type ShardChaosConfig struct {
	Seed int64

	// Shards counts deployments (default 2; the kill targets shard 0 and
	// the split moves a key from shard 0 to shard 1).
	Shards int
	// Primaries counts serving primaries per shard (the sequencer is
	// extra); Secondaries the per-shard secondary group. Defaults 3 and 2.
	Primaries   int
	Secondaries int
	// LUI is the lazy update interval (default 250ms).
	LUI time.Duration

	// Requests per pinned client (default 60), alternating Set/Get with
	// RequestDelay think time (default 20ms). Two pinned clients per shard:
	// one strict (a=0), one loose (a=2), so the per-shard traces exercise
	// primaries, secondaries, and deferral.
	Requests     int
	RequestDelay time.Duration

	// KillAt/RestartAt bound shard 0's sequencer outage (defaults 400ms
	// and 900ms). MoveAt starts the live split (default 600ms — inside the
	// outage, so the copy's source reads must ride out the failover).
	KillAt    time.Duration
	RestartAt time.Duration
	MoveAt    time.Duration
}

func (c *ShardChaosConfig) setDefaults() {
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Primaries == 0 {
		c.Primaries = 3
	}
	if c.Secondaries == 0 {
		c.Secondaries = 2
	}
	if c.LUI == 0 {
		c.LUI = 250 * time.Millisecond
	}
	if c.Requests == 0 {
		c.Requests = 60
	}
	if c.RequestDelay == 0 {
		c.RequestDelay = 20 * time.Millisecond
	}
	if c.KillAt == 0 {
		c.KillAt = 400 * time.Millisecond
	}
	if c.RestartAt == 0 {
		c.RestartAt = 900 * time.Millisecond
	}
	if c.MoveAt == 0 {
		c.MoveAt = 600 * time.Millisecond
	}
}

// ShardChaosResult is the scenario's verdicts, one oracle report per shard.
type ShardChaosResult struct {
	Reports []check.Report
	Traces  [][]byte

	// Requests/Failed/Done aggregate the pinned clients' closed loops.
	Requests int
	Failed   int
	Done     bool

	// OutageCompletions counts completions by clients pinned to shards
	// other than 0 inside the [KillAt, RestartAt] window — nonzero proves
	// the kill did not stall the rest of the fleet.
	OutageCompletions int

	// MoveInstalled/MoveValue/MoveOwner report the live split: whether the
	// migration installed, what the post-move read observed, and which
	// shard served it.
	MoveInstalled bool
	MoveValue     string
	MoveOwner     int
}

// shardChaosObs fans injector fault notifications to the owning shard's
// recorder, so each per-shard trace carries exactly its own faults.
type shardChaosObs struct {
	sd   *core.ShardedDeployment
	recs []*check.Recorder
}

func (o *shardChaosObs) Crash(id node.ID) {
	if i := o.sd.Owner(id); i >= 0 {
		o.recs[i].Crash(id)
	}
}
func (o *shardChaosObs) Restart(id node.ID) {
	if i := o.sd.Owner(id); i >= 0 {
		o.recs[i].Restart(id)
	}
}
func (o *shardChaosObs) Fault(note string) {
	for _, r := range o.recs {
		r.Fault(note)
	}
}

// keyOwnedBy scans for a key the map homes on the given shard, skipping any
// listed hash positions (so the split's single-position range stays private
// to the migration key).
func keyOwnedBy(m *shard.Map, owner int, tag string, avoid map[uint32]bool) string {
	for j := 0; j < 100000; j++ {
		k := fmt.Sprintf("%s%d", tag, j)
		h := shard.Hash(k)
		if m.OwnerOf(h) == owner && !avoid[h] {
			return k
		}
	}
	panic("experiment: no key found for shard " + fmt.Sprint(owner))
}

// WriteShardChaosTable renders one scenario run: per-shard invariant
// verdicts, the pinned clients' closed-loop outcome, the unaffected shards'
// liveness through the outage, and the live split's result.
func WriteShardChaosTable(w io.Writer, cfg ShardChaosConfig, res ShardChaosResult) {
	cfg.setDefaults()
	fmt.Fprintf(w, "Sharded chaos — %d shards; shard 0 sequencer down %v–%v; split at %v (seed %d)\n",
		cfg.Shards, cfg.KillAt, cfg.RestartAt, cfg.MoveAt, cfg.Seed)
	fmt.Fprintf(w, "  %-5s  %-26s  %7s  %8s  %s\n", "shard", "invariant", "checked", "failures", "verdict")
	for i := range res.Reports {
		for _, v := range res.Reports[i].Verdicts {
			verdict := "ok"
			if !v.OK() {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "  %-5d  %-26s  %7d  %8d  %s\n", i, v.Invariant, v.Checked, v.Failures, verdict)
		}
	}
	fmt.Fprintf(w, "  pinned loops: done=%v, %d requests, %d failed\n", res.Done, res.Requests, res.Failed)
	fmt.Fprintf(w, "  liveness: %d completions on other shards during shard 0's outage\n", res.OutageCompletions)
	fmt.Fprintf(w, "  split: installed=%v, post-move read %q served by shard %d\n",
		res.MoveInstalled, res.MoveValue, res.MoveOwner)
}

// routedClient registers a shard router plus its workload driver as one
// runtime node — the sharded counterpart of core's driven client.
type routedClient struct {
	r   *shard.Router
	run func(node.Context)
}

func (rc *routedClient) Init(ctx node.Context) {
	rc.r.Init(ctx)
	rc.run(ctx)
}
func (rc *routedClient) Recv(from node.ID, m node.Message) { rc.r.Recv(from, m) }

// RunShardChaosPoint executes the scenario and returns per-shard verdicts.
func RunShardChaosPoint(cfg ShardChaosConfig) ShardChaosResult {
	cfg.setDefaults()

	s := sim.NewScheduler(cfg.Seed)
	faults := chaos.NewNetFaults(netsim.UniformDelay{
		Min: 500 * time.Microsecond,
		Max: 2 * time.Millisecond,
	}, netsim.NoLoss{})
	rt := sim.NewRuntime(s, sim.WithDelay(faults), sim.WithLoss(faults))

	recs := make([]*check.Recorder, cfg.Shards)
	// Every router host — two pinned clients per shard plus the migration
	// client — must be known to the replicas as a client, or failover
	// announcements never reach it.
	var clientIDs []node.ID
	for i := 0; i < 2*cfg.Shards; i++ {
		clientIDs = append(clientIDs, node.ID(fmt.Sprintf("c%02d", i)))
	}
	clientIDs = append(clientIDs, "m00")
	svc := core.ServiceConfig{
		Primaries:    cfg.Primaries + 1, // + sequencer
		Secondaries:  cfg.Secondaries,
		LazyInterval: cfg.LUI,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
		ExtraClients: clientIDs,
	}
	sd, err := core.DeployShards(rt, svc, cfg.Shards, func(i int, s2 *core.ServiceConfig) {
		rec := check.NewRecorder(sim.Epoch, s.Now)
		recs[i] = rec
		s2.OnApply = rec.Apply
		s2.OnServeRead = rec.ServeRead
		s2.OnRestore = rec.Restore
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: shard chaos deploy: %v", err)) // static config bug
	}

	base := shard.NewUniform(cfg.Shards)
	// The split moves exactly the migration key's ring position, so pinned
	// keys avoid that position and never re-home.
	moveKey := keyOwnedBy(base, 0, "mig", nil)
	moveHash := shard.Hash(moveKey)
	avoid := map[uint32]bool{moveHash: true}

	clientCfg := func(staleness int) client.Config {
		return client.Config{
			Spec:    qos.Spec{Staleness: staleness, Deadline: 200 * time.Millisecond, MinProb: 0.5},
			Methods: qos.NewMethods("Get", "Version"),
			// The substrate needs real retransmit settings: the migration
			// client's first-ever message to the sequencer can be swallowed
			// by the crash, and only link-layer recovery (drop after
			// MaxRetries, then a generation reset on the stuck ack) unwedges
			// that link for the copy phase's frontier read.
			Group:         core.DefaultsForClient(),
			RetryInterval: 150 * time.Millisecond,
			MaxRetries:    100,
		}
	}

	var res ShardChaosResult
	var doneCount int
	totalClients := 0

	// Two pinned clients per shard: strict and loose staleness. Each drives
	// a key the uniform map homes on its shard, so its whole closed loop
	// lands on one gateway — the seq bookkeeping the oracles rely on.
	for i := 0; i < cfg.Shards; i++ {
		for _, staleness := range []int{0, 2} {
			shardIdx := i
			key := keyOwnedBy(base, i, fmt.Sprintf("doc%d-%d-", i, staleness), avoid)
			avoid[shard.Hash(key)] = true
			id := node.ID(fmt.Sprintf("c%02d", totalClients))
			totalClients++
			r := shard.New(shard.Config{Shards: sd.Infos, Client: clientCfg(staleness)})
			rec := recs[i]
			drive := func(ctx node.Context) {
				var issue func(k int)
				issue = func(k int) {
					if k >= cfg.Requests {
						doneCount++
						return
					}
					seq := uint64(k + 1)
					readOnly := k%2 == 1
					done := func(rr client.Result) {
						rec.ClientResult(ctx.ID(), seq, readOnly, rr.Err != "")
						res.Requests++
						if rr.Err != "" {
							res.Failed++
						}
						now := ctx.Now().Sub(sim.Epoch)
						if shardIdx != 0 && now >= cfg.KillAt && now <= cfg.RestartAt {
							res.OutageCompletions++
						}
						ctx.Post(cfg.RequestDelay, func() { issue(k + 1) })
					}
					if readOnly {
						r.Invoke("Get", []byte(key), done)
					} else {
						r.Invoke("Set", []byte(fmt.Sprintf("%s=%d", key, k)), done)
					}
				}
				stagger := time.Duration(ctx.Rand().Int63n(int64(cfg.RequestDelay) + 1))
				ctx.Post(stagger, func() { issue(0) })
			}
			rt.Register(id, &routedClient{r: r, run: drive})
		}
	}

	// The migration client runs the live split: write, move the key's range
	// to shard 1 while the write may still be in flight (and shard 0 is mid
	// failover), then read back through the new owner.
	mr := shard.New(shard.Config{Shards: sd.Infos, Client: clientCfg(0)})
	migrate := func(ctx node.Context) {
		ctx.SetTimer(cfg.MoveAt, func() {
			mr.Invoke("Set", []byte(moveKey+"=moved"), nil)
			if err := mr.Move(uint64(moveHash), uint64(moveHash)+1, 1%cfg.Shards, func(m *shard.Map) {
				res.MoveInstalled = true
			}); err != nil {
				panic(fmt.Sprintf("experiment: shard chaos move: %v", err))
			}
			mr.Invoke("Get", []byte(moveKey), func(rr client.Result) {
				res.MoveValue = string(rr.Payload)
				res.MoveOwner = sd.Owner(rr.Replica)
			})
		})
	}
	rt.Register("m00", &routedClient{r: mr, run: migrate})
	rt.Start()

	seq0 := sd.Shards[0].Sequencer
	inj := &chaos.Injector{
		RT:     rt,
		Faults: faults,
		Fresh:  sd.NewReplicaGateway,
		Obs:    &shardChaosObs{sd: sd, recs: recs},
	}
	inj.Install(chaos.Schedule{
		{At: cfg.KillAt, Action: chaos.ActCrash, Target: seq0},
		{At: cfg.RestartAt, Action: chaos.ActRestart, Target: seq0},
	})

	capAt := time.Duration(cfg.Requests)*cfg.RequestDelay*10 + 30*time.Second
	for elapsed := time.Duration(0); doneCount < totalClients && elapsed < capAt; elapsed += time.Second {
		s.RunFor(time.Second)
	}
	s.RunFor(5 * time.Second) // drain stragglers and the migration read

	res.Done = doneCount == totalClients
	for _, rec := range recs {
		res.Reports = append(res.Reports, check.Run(rec.Events()))
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			panic(fmt.Sprintf("experiment: shard chaos trace: %v", err)) // bytes.Buffer cannot fail
		}
		res.Traces = append(res.Traces, buf.Bytes())
	}
	return res
}
