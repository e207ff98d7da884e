package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/sim"
)

// TestSequentialConsistencyWithBatchedAssignment re-runs the cross-primary
// convergence invariant with batched GSN ordering, a non-trivial window, and
// the frontier read fast path enabled: every primary must still apply every
// update in the same order, and secondaries must converge through lazy
// propagation. It also checks the batch machinery actually engaged — the
// sequencer's flush stats must show multi-request windows.
func TestSequentialConsistencyWithBatchedAssignment(t *testing.T) {
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
	svc := testService(4, 3, 500*ms)
	svc.AssignBatch = 8
	svc.AssignBatchWindow = 2 * ms
	svc.FastReads = true
	d, err := Deploy(rt, svc, clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(30 * time.Second)

	want := uint64(writers * perWriter)
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
	flushes, reqs := d.Replicas[d.Sequencer].AssignBatchStats()
	if flushes == 0 || reqs != want {
		t.Fatalf("sequencer flushed %d windows covering %d requests, want all %d requests batched", flushes, reqs, want)
	}
	if flushes >= reqs {
		t.Fatalf("no amortization: %d flushes for %d requests", flushes, reqs)
	}
}

// assignTap stands between the sequencer's gateway and its runtime, noting
// the virtual instant each request first reaches the sequencer and checking
// every assignment window that leaves it against those instants.
type assignTap struct {
	node.Node
	node.Context
	arrived  map[consistency.RequestID]time.Time
	assigned map[consistency.RequestID]bool
	problems []string
}

func (a *assignTap) Init(ctx node.Context) {
	a.Context = ctx
	a.Node.Init(a)
}

func (a *assignTap) Recv(from node.ID, m node.Message) {
	if dm, ok := m.(group.DataMsg); ok {
		if r, ok := dm.Payload.(consistency.Request); ok {
			if _, seen := a.arrived[r.ID]; !seen {
				a.arrived[r.ID] = a.Now()
			}
		}
	}
	a.Node.Recv(from, m)
}

func (a *assignTap) Send(to node.ID, m node.Message) {
	if dm, ok := m.(group.DataMsg); ok {
		if ab, ok := dm.Payload.(consistency.GSNAssignBatch); ok {
			ids := append(append([]consistency.RequestID(nil), ab.Updates...), ab.Reads...)
			if len(ids) != 1 {
				a.problems = append(a.problems, fmt.Sprintf("a window of %d requests left", len(ids)))
			}
			for _, id := range ids {
				a.assigned[id] = true
				if at := a.arrived[id]; !at.Equal(a.Now()) {
					a.problems = append(a.problems, fmt.Sprintf("%s/%d assigned %v after it arrived",
						id.Client, id.Seq, a.Now().Sub(at)))
				}
			}
		}
	}
	a.Context.Send(to, m)
}

// tapRuntime registers the sequencer p00 behind an assignTap.
type tapRuntime struct {
	Runtime
	tap *assignTap
}

func (r tapRuntime) Register(id node.ID, n node.Node) {
	if id == "p00" {
		r.tap.Node = n
		n = r.tap
	}
	r.Runtime.Register(id, n)
}

// TestWindowOfOneAssignsEachRequestAtOnce pins the paper's per-request
// protocol as a parameter of the one assignment path: with AssignBatch 0
// or 1 every request sequenced is its own window — one flush per request —
// and its assignment leaves the sequencer at the virtual instant the
// request arrived, never held by the window timer. Nothing is lost here, so
// no update chase joins a window and AssignBatchStats counts requests alone.
func TestWindowOfOneAssignsEachRequestAtOnce(t *testing.T) {
	for _, assignBatch := range []int{0, 1} {
		t.Run(fmt.Sprintf("AssignBatch=%d", assignBatch), func(t *testing.T) {
			s, rt := newSim(11)
			var clients []ClientConfig
			for i := 0; i < 2; i++ {
				clients = append(clients, ClientConfig{
					ID:            node.ID(fmt.Sprintf("c%02d", i)),
					Spec:          qos.Spec{Staleness: 2, Deadline: 500 * ms, MinProb: 0.5},
					Methods:       kvMethods(),
					RetryInterval: time.Hour, // each request reaches the sequencer once
					Driver: func(ctx node.Context, gw *client.Gateway) {
						var issue func(k int)
						issue = func(k int) {
							if k >= 20 {
								return
							}
							next := func(client.Result) { ctx.SetTimer(7*ms, func() { issue(k + 1) }) }
							if k%2 == 0 {
								gw.Invoke("Set", []byte(fmt.Sprintf("k=%d", k)), next)
							} else {
								gw.Invoke("Get", []byte("k"), next)
							}
						}
						// Start once the sequencer's boot takeover round is over:
						// requests arriving during it are held, not windowed.
						ctx.SetTimer(100*ms+time.Duration(i)*ms, func() { issue(0) })
					},
				})
			}
			svc := testService(3, 2, 500*ms)
			svc.AssignBatch = assignBatch
			svc.AssignBatchWindow = 50 * ms // would hold every request, were a window open
			tap := &assignTap{
				arrived:  make(map[consistency.RequestID]time.Time),
				assigned: make(map[consistency.RequestID]bool),
			}
			d, err := Deploy(tapRuntime{rt, tap}, svc, clients)
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()
			s.RunFor(10 * time.Second)

			n := uint64(len(tap.arrived))
			if n != 40 {
				t.Fatalf("%d requests reached the sequencer, want 40", n)
			}
			if flushes, reqs := d.Replicas["p00"].AssignBatchStats(); flushes != n || reqs != n {
				t.Fatalf("AssignBatchStats = %d flushes covering %d requests, want one flush per request (%d)",
					flushes, reqs, n)
			}
			if len(tap.assigned) != len(tap.arrived) {
				t.Errorf("%d of %d requests were assigned in a window", len(tap.assigned), n)
			}
			for _, p := range tap.problems {
				t.Error(p)
			}
		})
	}
}

// TestFastReadPathServesFrontierReads drives a write-then-many-reads
// workload with FastReads on and no service-delay model: reads that arrive
// with their snapshot already committed must be served through the inline
// path, with correct results — with a tracer attached too, which must then
// receive one serve_read span per read served.
func TestFastReadPathServesFrontierReads(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%t", traced), func(t *testing.T) {
			s, rt := newSim(7)
			const reads = 10
			var results []client.Result
			clients := []ClientConfig{{
				ID:      "c00",
				Spec:    qos.Spec{Staleness: 0, Deadline: 500 * ms, MinProb: 0.5},
				Methods: kvMethods(),
				Driver: func(ctx node.Context, gw *client.Gateway) {
					ctx.SetTimer(10*ms, func() {
						gw.Invoke("Set", []byte("a=1"), func(client.Result) {
							var issue func(k int)
							issue = func(k int) {
								if k >= reads {
									return
								}
								gw.Invoke("Get", []byte("a"), func(r client.Result) {
									results = append(results, r)
									ctx.SetTimer(20*ms, func() { issue(k + 1) })
								})
							}
							issue(0)
						})
					})
				},
			}}
			svc := testService(3, 2, time.Second)
			svc.FastReads = true
			var spans bytes.Buffer
			served := 0
			if traced {
				svc.Tracer = obs.NewTracer(&spans, sim.Epoch)
				svc.OnServeRead = func(node.ID, consistency.RequestID, uint64, uint64, int, bool) { served++ }
			}
			d, err := Deploy(rt, svc, clients)
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()
			s.RunFor(10 * time.Second)

			if len(results) != reads {
				t.Fatalf("completed %d reads, want %d", len(results), reads)
			}
			for i, r := range results {
				if r.Err != "" || string(r.Payload) != "1" {
					t.Fatalf("read %d = %+v", i, r)
				}
			}
			var fast uint64
			for _, id := range d.ServingPrimaries {
				fast += d.Replicas[id].FastServed()
			}
			if fast == 0 {
				t.Fatal("no read went through the frontier fast path")
			}
			if !traced {
				return
			}
			if err := svc.Tracer.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := strings.Count(spans.String(), `"kind":"serve_read"`); got != served {
				t.Fatalf("%d serve_read spans for %d reads served", got, served)
			}
		})
	}
}
