package experiment

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/shard"
	"aqua/internal/sim"
	"aqua/internal/workload"
)

// poissonStream calls issue at the arrivals of a Poisson process with the
// given rate (events per second) until stop has elapsed: an open loop,
// whose schedule never waits on completions.
func poissonStream(ctx node.Context, rate float64, stop time.Duration, issue func()) {
	end := ctx.Now().Add(stop)
	var arrive func()
	arrive = func() {
		if !ctx.Now().Before(end) {
			return
		}
		issue()
		ctx.Post(workload.PoissonGap(ctx.Rand(), rate), arrive)
	}
	ctx.Post(workload.PoissonGap(ctx.Rand(), rate), arrive)
}

// callbackTally holds the gateway's contract over a whole run: every
// invocation's callback fires exactly once.
type callbackTally struct {
	issued, answered, failed, repeated int
}

// wrap counts one invocation and returns its callback, which tallies the
// outcome before passing it on to cb (if non-nil).
func (c *callbackTally) wrap(cb func(client.Result)) func(client.Result) {
	c.issued++
	fired := false
	return func(res client.Result) {
		if fired {
			c.repeated++
			return
		}
		fired = true
		c.answered++
		if res.Err != "" {
			c.failed++
		}
		if cb != nil {
			cb(res)
		}
	}
}

// requireDrained fails the test unless every issued invocation was answered
// exactly once and none failed.
func (c *callbackTally) requireDrained(t *testing.T) {
	t.Helper()
	if c.issued == 0 || c.answered != c.issued || c.failed != 0 || c.repeated != 0 {
		t.Fatalf("callbacks after the drain: issued %d, answered %d, failed %d, fired twice %d",
			c.issued, c.answered, c.failed, c.repeated)
	}
}

// TestShardmaxHotShardZipf is the hot-shard scenario: eight shard routers
// issue open-loop Zipf key streams that concentrate load on the shard owning
// the hottest keys, and the per-shard counts expose the skew while every
// shard still makes progress. Issuing stops at 2s; by 3s every invocation
// has been answered and no router has anything in flight.
func TestShardmaxHotShardZipf(t *testing.T) {
	s := sim.NewScheduler(17)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
		Min: 200 * time.Microsecond,
		Max: time.Millisecond,
	}))
	const (
		shards  = 4
		clients = 8
		// 256 keys: enough that every shard owns a slice of the keyspace
		// (short sequential keys hash unevenly), while the Zipf head still
		// dominates the draw stream.
		nkeys = 256
	)
	ids := make([]node.ID, clients)
	for i := range ids {
		ids[i] = node.ID(fmt.Sprintf("c%d", i))
	}
	svc := core.ServiceConfig{
		Primaries:         4,
		Secondaries:       2,
		LazyInterval:      100 * time.Millisecond,
		Group:             group.DefaultConfig(),
		NewApp:            func() app.Application { return apps.NewKVStore() },
		AssignBatch:       256,
		AssignBatchWindow: time.Millisecond,
		FastReads:         true,
		ExtraClients:      ids,
	}
	sd, err := core.DeployShards(rt, svc, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	m := shard.NewUniform(shards)
	issued := make([]uint64, shards)
	completed := make([]uint64, shards)
	var tally callbackTally
	routers := make([]*shard.Router, clients)
	for i, id := range ids {
		r := shard.New(shard.Config{Shards: sd.Infos, Client: core.ClientGatewayConfig(svc, core.ClientConfig{
			Spec:    qos.Spec{Deadline: 25 * time.Millisecond, MinProb: 0.5},
			Methods: qos.NewMethods("Get"),
		})})
		routers[i] = r
		rt.Register(id, &routedClient{r: r, run: func(ctx node.Context) {
			zipf := rand.NewZipf(ctx.Rand(), 1.2, 1, nkeys-1)
			var seq uint64
			poissonStream(ctx, 1000, 2*time.Second, func() {
				read := ctx.Rand().Float64() < 0.5
				key := keys[zipf.Uint64()]
				sh := m.Owner(key)
				issued[sh]++
				done := tally.wrap(func(client.Result) { completed[sh]++ })
				if read {
					r.Invoke("Get", []byte(key), done)
					return
				}
				seq++
				r.Invoke("Set", []byte(key+"="+strconv.FormatUint(seq, 10)), done)
			})
		}})
	}
	rt.Start()
	s.RunFor(3 * time.Second)

	hot := m.Owner("k0")
	var total, min, max uint64
	min = issued[0]
	for i := 0; i < shards; i++ {
		total += issued[i]
		if issued[i] < min {
			min = issued[i]
		}
		if issued[i] > max {
			max = issued[i]
		}
		if completed[i] == 0 {
			t.Fatalf("shard %d completed nothing under the hot-key stream", i)
		}
	}
	if issued[hot] != max {
		t.Fatalf("shard %d owns the hottest key but shard counts are %v", hot, issued)
	}
	if issued[hot] <= total/shards {
		t.Fatalf("hot shard issued %d of %d — no skew above fair share", issued[hot], total)
	}
	if max < min*3/2 {
		t.Fatalf("skew too shallow: max %d vs min %d", max, min)
	}
	tally.requireDrained(t)
	for c, r := range routers {
		for i := 0; i < shards; i++ {
			if n := r.Outstanding(i); n != 0 {
				t.Fatalf("router %s still has %d invocations in flight to shard %d", ids[c], n, i)
			}
		}
	}
}
