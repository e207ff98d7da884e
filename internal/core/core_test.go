package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/selection"
	"aqua/internal/sim"
)

const ms = time.Millisecond

func kvMethods() *qos.Methods { return qos.NewMethods("Get", "Version") }

func testService(primaries, secondaries int, lazy time.Duration) ServiceConfig {
	return ServiceConfig{
		Primaries:    primaries,
		Secondaries:  secondaries,
		LazyInterval: lazy,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
	}
}

func newSim(seed int64) (*sim.Scheduler, *sim.Runtime) {
	s := sim.NewScheduler(seed)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{Min: 500 * time.Microsecond, Max: 2 * ms}))
	return s, rt
}

// fixedSelector always picks the same replicas (plus the sequencer).
type fixedSelector struct{ ids []node.ID }

func (f fixedSelector) Name() string { return "fixed" }
func (f fixedSelector) Select(in selection.Input) []node.ID {
	out := append([]node.ID{}, f.ids...)
	for _, id := range out {
		if id == in.Sequencer {
			return out
		}
	}
	return append(out, in.Sequencer)
}

func TestDeployValidation(t *testing.T) {
	s, rt := newSim(1)
	_ = s
	if _, err := Deploy(rt, testService(1, 0, time.Second), nil); err == nil {
		t.Fatal("single-primary service accepted")
	}
	svc := testService(2, 0, time.Second)
	svc.NewApp = nil
	if _, err := Deploy(rt, svc, nil); err == nil {
		t.Fatal("nil NewApp accepted")
	}
	svc = testService(2, 0, 0)
	if _, err := Deploy(rt, svc, nil); err == nil {
		t.Fatal("zero lazy interval accepted")
	}
	if _, err := Deploy(rt, testService(2, 0, time.Second), []ClientConfig{{
		ID: "c", Spec: qos.Spec{Staleness: -1, Deadline: time.Second, MinProb: 0.5},
	}}); err == nil {
		t.Fatal("invalid client spec accepted")
	}
	if _, err := Deploy(rt, testService(2, 0, time.Second), []ClientConfig{{
		Spec: qos.Spec{Deadline: time.Second, MinProb: 0.5},
	}}); err == nil {
		t.Fatal("empty client ID accepted")
	}
}

// registrar records registrations without running anything.
type registrar struct{ ids []node.ID }

func (r *registrar) Register(id node.ID, _ node.Node) { r.ids = append(r.ids, id) }

// TestHostOnlyBuildsNamedMembers pins how a multi-process deployment builds
// its members: arbitrary names, the sequencer first, each process hosting
// its own subset, and only replicas or configured clients accepted.
func TestHostOnlyBuildsNamedMembers(t *testing.T) {
	info := client.ServiceInfo{Primaries: []node.ID{"alpha", "beta"}, Secondaries: []node.ID{"zeta"}, Sequencer: "alpha"}
	cc := ClientConfig{ID: "c00", Spec: qos.Spec{Deadline: time.Second, MinProb: 0.5}, Methods: kvMethods()}
	svc := testService(0, 0, time.Second)
	svc.ExtraClients = []node.ID{"router"}

	bad := info
	bad.Sequencer = "beta"
	if _, err := NewDeployment(svc, bad, nil); err == nil {
		t.Fatal("sequencer that is not the first primary accepted")
	}
	d, err := NewDeployment(svc, info, []ClientConfig{cc})
	if err != nil {
		t.Fatal(err)
	}
	var rt registrar
	for _, id := range []node.ID{"zz", "router"} {
		if err := d.Host(&rt, id); err == nil {
			t.Fatalf("Host(%s) accepted a non-member", id)
		}
	}
	if err := d.Host(&rt, "zeta", "c00", "beta"); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rt.ids) != "[zeta c00 beta]" || len(d.Replicas) != 2 || d.Clients["c00"] == nil {
		t.Fatalf("registered %v, replicas %d, clients %d", rt.ids, len(d.Replicas), len(d.Clients))
	}
	if fmt.Sprint(d.ClientIDs) != "[c00 router]" || d.Info.LazyInterval != time.Second || d.ServingPrimaries[0] != "beta" {
		t.Fatalf("deployment = %+v", d)
	}
}

func TestDeployTopology(t *testing.T) {
	_, rt := newSim(1)
	d, err := Deploy(rt, testService(4, 6, 2*time.Second), []ClientConfig{{
		ID:   "c00",
		Spec: qos.Spec{Staleness: 2, Deadline: 200 * ms, MinProb: 0.9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Sequencer != "p00" || len(d.PrimaryGroup) != 4 || len(d.ServingPrimaries) != 3 || len(d.Secondaries) != 6 {
		t.Fatalf("topology = %+v", d)
	}
	if len(d.Replicas) != 10 || len(d.Clients) != 1 {
		t.Fatalf("gateways = %d replicas, %d clients", len(d.Replicas), len(d.Clients))
	}
	if d.Info.Sequencer != "p00" || d.Info.LazyInterval != 2*time.Second {
		t.Fatalf("info = %+v", d.Info)
	}
}

func TestEndToEndWriteThenRead(t *testing.T) {
	s, rt := newSim(2)
	var got []client.Result
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 0, Deadline: 500 * ms, MinProb: 0.5},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			ctx.SetTimer(10*ms, func() {
				gw.Invoke("Set", []byte("a=1"), func(w client.Result) {
					got = append(got, w)
					gw.Invoke("Get", []byte("a"), func(r client.Result) {
						got = append(got, r)
					})
				})
			})
		},
	}}
	d, err := Deploy(rt, testService(3, 2, time.Second), clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(5 * time.Second)

	if len(got) != 2 {
		t.Fatalf("completed %d invocations, want 2", len(got))
	}
	if got[0].Err != "" || string(got[0].Payload) != "v1" {
		t.Fatalf("write result = %+v", got[0])
	}
	if got[1].Err != "" || string(got[1].Payload) != "1" {
		t.Fatalf("read result = %+v", got[1])
	}
	if got[1].Selected < 1 {
		t.Fatalf("read selected %d serving replicas", got[1].Selected)
	}
	m := d.Clients["c00"].Metrics()
	if m.Reads != 1 || m.Updates != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestSequentialConsistencyAcrossPrimaries(t *testing.T) {
	s, rt := newSim(3)
	const writers = 3
	const perWriter = 20
	var clients []ClientConfig
	for i := 0; i < writers; i++ {
		i := i
		id := node.ID(fmt.Sprintf("c%02d", i))
		clients = append(clients, ClientConfig{
			ID:      id,
			Spec:    qos.Spec{Staleness: 2, Deadline: 500 * ms, MinProb: 0.5},
			Methods: kvMethods(),
			Driver: func(ctx node.Context, gw *client.Gateway) {
				var issue func(k int)
				issue = func(k int) {
					if k >= perWriter {
						return
					}
					payload := []byte(fmt.Sprintf("k=%d-%d", i, k))
					gw.Invoke("Set", payload, func(client.Result) {
						ctx.SetTimer(5*ms, func() { issue(k + 1) })
					})
				}
				ctx.SetTimer(time.Duration(i)*ms, func() { issue(0) })
			},
		})
	}
	d, err := Deploy(rt, testService(4, 3, 500*ms), clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(30 * time.Second)

	want := uint64(writers * perWriter)
	// Every primary (including the silent sequencer) applied all updates in
	// the same order; their states must be bit-identical.
	var ref []byte
	for _, id := range d.PrimaryGroup {
		gw := d.Replicas[id]
		if gw.Applied() != want {
			t.Fatalf("%s applied %d, want %d", id, gw.Applied(), want)
		}
		snap, err := gw.App().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = snap
		} else if string(ref) != string(snap) {
			t.Fatalf("%s state diverged from the sequencer's", id)
		}
	}
	// Secondaries caught up through lazy updates.
	for _, id := range d.Secondaries {
		gw := d.Replicas[id]
		if gw.CSN() != want {
			t.Fatalf("%s CSN %d, want %d", id, gw.CSN(), want)
		}
		snap, _ := gw.App().Snapshot()
		if string(snap) != string(ref) {
			t.Fatalf("%s state diverged after lazy propagation", id)
		}
	}
}

func TestDeferredReadWaitsForLazyUpdate(t *testing.T) {
	s, rt := newSim(4)
	const lazy = 800 * ms
	var read client.Result
	var readIssuedAt, readDoneAt time.Time
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 0, Deadline: 10 * time.Second, MinProb: 0.1},
		Methods: kvMethods(),
		// Force the read to a secondary: with staleness 0 and a fresh
		// update, it must defer until the next lazy propagation.
		Selector: fixedSelector{ids: []node.ID{"s00"}},
		Driver: func(ctx node.Context, gw *client.Gateway) {
			ctx.SetTimer(10*ms, func() {
				gw.Invoke("Set", []byte("x=1"), func(client.Result) {
					readIssuedAt = ctx.Now()
					gw.Invoke("Get", []byte("x"), func(r client.Result) {
						read = r
						readDoneAt = ctx.Now()
					})
				})
			})
		},
	}}
	if _, err := Deploy(rt, testService(2, 1, lazy), clients); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(5 * time.Second)

	if readDoneAt.IsZero() {
		t.Fatal("deferred read never completed")
	}
	if string(read.Payload) != "1" {
		t.Fatalf("deferred read payload = %q (staleness guarantee broken)", read.Payload)
	}
	if wait := readDoneAt.Sub(readIssuedAt); wait < 100*ms {
		t.Fatalf("read completed in %v; it should have deferred until the lazy update", wait)
	}
	if read.Replica != "s00" {
		t.Fatalf("read served by %s, want s00", read.Replica)
	}
}

func TestStaleReadServedImmediatelyWithinThreshold(t *testing.T) {
	s, rt := newSim(5)
	const lazy = 10 * time.Second // effectively never during the test
	var read client.Result
	var readDoneAt, readIssuedAt time.Time
	clients := []ClientConfig{{
		ID:       "c00",
		Spec:     qos.Spec{Staleness: 5, Deadline: time.Second, MinProb: 0.1},
		Methods:  kvMethods(),
		Selector: fixedSelector{ids: []node.ID{"s00"}},
		Driver: func(ctx node.Context, gw *client.Gateway) {
			ctx.SetTimer(10*ms, func() {
				gw.Invoke("Set", []byte("x=1"), func(client.Result) {
					readIssuedAt = ctx.Now()
					gw.Invoke("Version", nil, func(r client.Result) {
						read = r
						readDoneAt = ctx.Now()
					})
				})
			})
		},
	}}
	if _, err := Deploy(rt, testService(2, 1, lazy), clients); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(3 * time.Second)

	if readDoneAt.IsZero() {
		t.Fatal("read never completed")
	}
	// The secondary has not applied the update (lazy interval is huge) but
	// staleness 1 ≤ threshold 5, so it answers immediately from old state.
	if string(read.Payload) != "v0" {
		t.Fatalf("payload = %q, want stale v0", read.Payload)
	}
	if wait := readDoneAt.Sub(readIssuedAt); wait > 200*ms {
		t.Fatalf("within-threshold read took %v; should be immediate", wait)
	}
}

func TestSequencerFailover(t *testing.T) {
	s, rt := newSim(6)
	var results []client.Result
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 2, Deadline: time.Second, MinProb: 0.1},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			var issue func(k int)
			issue = func(k int) {
				if k >= 40 {
					return
				}
				gw.Invoke("Set", []byte(fmt.Sprintf("k=%d", k)), func(r client.Result) {
					results = append(results, r)
					ctx.SetTimer(100*ms, func() { issue(k + 1) })
				})
			}
			ctx.SetTimer(10*ms, func() { issue(0) })
		},
	}}
	d, err := Deploy(rt, testService(4, 2, 500*ms), clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(1 * time.Second)
	rt.Crash("p00") // kill the sequencer mid-run
	s.RunFor(30 * time.Second)

	if len(results) != 40 {
		t.Fatalf("completed %d of 40 updates across sequencer failover", len(results))
	}
	// p01 must have taken over sequencing and announced itself.
	if !d.Replicas["p01"].IsLeader() {
		t.Fatal("p01 did not become sequencer")
	}
	if got := d.Clients["c00"].Sequencer(); got != "p01" {
		t.Fatalf("client believes sequencer is %s, want p01", got)
	}
	// Surviving primaries converged.
	applied := d.Replicas["p01"].Applied()
	if applied != 40 {
		t.Fatalf("p01 applied %d, want 40", applied)
	}
	for _, id := range []node.ID{"p02", "p03"} {
		if d.Replicas[id].Applied() != applied {
			t.Fatalf("%s applied %d, want %d", id, d.Replicas[id].Applied(), applied)
		}
	}
}

func TestLazyPublisherFailover(t *testing.T) {
	s, rt := newSim(7)
	done := 0
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 2, Deadline: time.Second, MinProb: 0.1},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			var issue func(k int)
			issue = func(k int) {
				if k >= 30 {
					return
				}
				gw.Invoke("Set", []byte(fmt.Sprintf("k=%d", k)), func(client.Result) {
					done++
					ctx.SetTimer(100*ms, func() { issue(k + 1) })
				})
			}
			ctx.SetTimer(10*ms, func() { issue(0) })
		},
	}}
	d, err := Deploy(rt, testService(4, 2, 400*ms), clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(time.Second)
	if !d.Replicas["p01"].IsPublisher() {
		t.Fatal("p01 should be the initial lazy publisher")
	}
	rt.Crash("p01")
	s.RunFor(30 * time.Second)

	if !d.Replicas["p02"].IsPublisher() {
		t.Fatal("p02 did not take over lazy publishing")
	}
	if done != 30 {
		t.Fatalf("completed %d of 30 updates", done)
	}
	// Secondaries kept receiving lazy updates from the new publisher.
	for _, id := range d.Secondaries {
		if got := d.Replicas[id].CSN(); got != 30 {
			t.Fatalf("%s CSN %d, want 30 (lazy propagation stalled)", id, got)
		}
	}
}

func TestTimingFailureDetectionAndBreachCallback(t *testing.T) {
	s, rt := newSim(8)
	var breach []float64
	reads := 0
	svc := testService(3, 2, time.Second)
	// Every request takes ~300ms of simulated service time.
	svc.ServiceDelay = func(*rand.Rand) time.Duration { return 300 * ms }
	clients := []ClientConfig{{
		ID:       "c00",
		Spec:     qos.Spec{Staleness: 5, Deadline: 50 * ms, MinProb: 0.9},
		Methods:  kvMethods(),
		OnBreach: func(rate float64) { breach = append(breach, rate) },
		Driver: func(ctx node.Context, gw *client.Gateway) {
			var issue func(k int)
			issue = func(k int) {
				if k >= 10 {
					return
				}
				gw.Invoke("Version", nil, func(r client.Result) {
					reads++
					if !r.TimingFailure {
						t.Errorf("read %d met an unmeetable 50ms deadline", k)
					}
					ctx.SetTimer(50*ms, func() { issue(k + 1) })
				})
			}
			ctx.SetTimer(10*ms, func() { issue(0) })
		},
	}}
	d, err := Deploy(rt, svc, clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(30 * time.Second)

	if reads != 10 {
		t.Fatalf("completed %d of 10 reads", reads)
	}
	if len(breach) != 1 {
		t.Fatalf("breach callback fired %d times, want exactly once", len(breach))
	}
	if m := d.Clients["c00"].Metrics(); m.TimingFailures != 10 {
		t.Fatalf("timing failures = %d, want 10", m.TimingFailures)
	}
	if rate := d.Clients["c00"].FailureRate(); rate != 1 {
		t.Fatalf("failure rate = %v, want 1", rate)
	}
}

func TestPerfBroadcastsPopulateRepository(t *testing.T) {
	s, rt := newSim(9)
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 2, Deadline: 500 * ms, MinProb: 0.5},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			var issue func(k int)
			issue = func(k int) {
				if k >= 6 {
					return
				}
				method, payload := "Set", []byte(fmt.Sprintf("k=%d", k))
				if k%2 == 1 {
					method, payload = "Version", nil
				}
				gw.Invoke(method, payload, func(client.Result) {
					ctx.SetTimer(50*ms, func() { issue(k + 1) })
				})
			}
			ctx.SetTimer(10*ms, func() { issue(0) })
		},
	}}
	d, err := Deploy(rt, testService(3, 2, 300*ms), clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(10 * time.Second)

	repo := d.Clients["c00"].Repository()
	// Cold-start reads go to every serving replica, so all have history.
	histories := 0
	for _, id := range append(append([]node.ID{}, d.ServingPrimaries...), d.Secondaries...) {
		if repo.HasHistory(id) {
			histories++
		}
	}
	if histories == 0 {
		t.Fatal("no replica history after reads")
	}
	if !repo.HasPublisherInfo() {
		t.Fatal("no lazy-publisher info reached the client")
	}
	if repo.UpdateRate() <= 0 {
		t.Fatal("update rate λu not learned")
	}
}

func TestFullStackReplicaRestartMidWorkload(t *testing.T) {
	s, rt := newSim(20)
	done := 0
	var failures int
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 2, Deadline: time.Second, MinProb: 0.5},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			var issue func(k int)
			issue = func(k int) {
				if k >= 60 {
					done++
					return
				}
				next := func(r client.Result) {
					if r.TimingFailure {
						failures++
					}
					ctx.SetTimer(100*ms, func() { issue(k + 1) })
				}
				if k%2 == 0 {
					gw.Invoke("Set", []byte(fmt.Sprintf("k=%d", k)), next)
				} else {
					gw.Invoke("Get", []byte("k"), next)
				}
			}
			ctx.SetTimer(10*ms, func() { issue(0) })
		},
	}}
	d, err := Deploy(rt, testService(3, 2, 400*ms), clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	s.RunFor(2 * time.Second)
	rt.Crash("p02")
	s.RunFor(2 * time.Second)
	fresh, err := d.NewReplicaGateway("p02")
	if err != nil {
		t.Fatal(err)
	}
	rt.Restart("p02", fresh)
	for i := 0; i < 120 && done == 0; i++ {
		s.RunFor(time.Second)
	}

	if done != 1 {
		t.Fatal("workload did not finish across restart")
	}
	// The restarted replica converged with the rest of the group.
	s.RunFor(2 * time.Second)
	want := d.Replicas["p01"].Applied()
	if got := fresh.Applied(); got != want {
		t.Fatalf("restarted p02 applied %d, want %d", got, want)
	}
	snapA, _ := d.Replicas["p01"].App().Snapshot()
	snapB, _ := fresh.App().Snapshot()
	if string(snapA) != string(snapB) {
		t.Fatal("restarted replica state diverged")
	}
}

func TestNewReplicaGatewayUnknownID(t *testing.T) {
	_, rt := newSim(21)
	d, err := Deploy(rt, testService(2, 1, time.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewReplicaGateway("zz"); err == nil {
		t.Fatal("unknown replica accepted")
	}
	if _, err := d.NewReplicaGateway("s00"); err != nil {
		t.Fatalf("secondary rebuild failed: %v", err)
	}
}

// TestClientMaxPendingReachesGateway: ClientConfig.MaxPending sizes the
// deployed client's request memo. Three invocations issued at once under a
// bound of two evict the first before any reply can arrive; zero keeps the
// client default (1024), so all three complete.
func TestClientMaxPendingReachesGateway(t *testing.T) {
	for _, tc := range []struct {
		maxPending  int
		wantEvicted int
	}{{2, 1}, {0, 0}} {
		t.Run(fmt.Sprintf("MaxPending=%d", tc.maxPending), func(t *testing.T) {
			s, rt := newSim(22)
			var got []client.Result
			clients := []ClientConfig{{
				ID:         "c00",
				Spec:       qos.Spec{Staleness: 0, Deadline: 500 * ms, MinProb: 0.5},
				Methods:    kvMethods(),
				MaxPending: tc.maxPending,
				Driver: func(ctx node.Context, gw *client.Gateway) {
					ctx.SetTimer(10*ms, func() {
						for i := 0; i < 3; i++ {
							gw.Invoke("Set", []byte(fmt.Sprintf("k%d=1", i)), func(r client.Result) {
								got = append(got, r)
							})
						}
					})
				},
			}}
			if _, err := Deploy(rt, testService(3, 1, time.Second), clients); err != nil {
				t.Fatal(err)
			}
			rt.Start()
			s.RunFor(5 * time.Second)

			if len(got) != 3 {
				t.Fatalf("%d callbacks fired, want 3", len(got))
			}
			evicted := 0
			for _, r := range got {
				if strings.Contains(r.Err, "evicted") {
					evicted++
				} else if r.Err != "" {
					t.Fatalf("unexpected failure %+v", r)
				}
			}
			if evicted != tc.wantEvicted {
				t.Fatalf("%d invocations evicted, want %d: %+v", evicted, tc.wantEvicted, got)
			}
		})
	}
}
