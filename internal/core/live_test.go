package core

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/tcpnet"
	"aqua/internal/wal"
)

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timeout waiting for: " + msg)
}

func TestLiveRuntimeEndToEnd(t *testing.T) {
	rt := live.NewRuntime(live.WithSeed(42))
	var gotWrite, gotRead atomic.Value
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 0, Deadline: 500 * ms, MinProb: 0.5},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			ctx.SetTimer(10*ms, func() {
				gw.Invoke("Set", []byte("a=live"), func(w client.Result) {
					gotWrite.Store(w)
					gw.Invoke("Get", []byte("a"), func(r client.Result) {
						gotRead.Store(r)
					})
				})
			})
		},
	}}
	svc := testService(3, 2, 500*ms)
	if _, err := Deploy(rt, svc, clients); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	waitFor(t, func() bool { return gotRead.Load() != nil }, "live read")
	w := gotWrite.Load().(client.Result)
	r := gotRead.Load().(client.Result)
	if w.Err != "" || string(w.Payload) != "v1" {
		t.Fatalf("write = %+v", w)
	}
	if r.Err != "" || string(r.Payload) != "live" {
		t.Fatalf("read = %+v", r)
	}
}

// TestLiveIdleFlushBeatsWindowTimer: on the live runtime a request that
// reaches an idle sequencer leaves at the mailbox drain, not at the window
// timer. With a 256-request window and an hour-long AssignBatchWindow, one
// Set is answered within seconds only if the idle flush sent it.
func TestLiveIdleFlushBeatsWindowTimer(t *testing.T) {
	rt := live.NewRuntime(live.WithSeed(43))
	done := make(chan client.Result, 1)
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 0, Deadline: 500 * ms, MinProb: 0.5},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			ctx.SetTimer(10*ms, func() {
				gw.Invoke("Set", []byte("a=idle"), func(r client.Result) { done <- r })
			})
		},
	}}
	svc := testService(3, 1, 500*ms)
	svc.AssignBatch = 256
	svc.AssignBatchWindow = time.Hour
	if _, err := Deploy(rt, svc, clients); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	select {
	case r := <-done:
		if r.Err != "" || string(r.Payload) != "v1" {
			t.Fatalf("write = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Set unanswered after 5 s: the window waited for its hour-long timer")
	}
}

// TestLiveDurableIdleFlushEveryDrain: a durable, replicated sequencer sends
// a window at every mailbox drain, however recent its last flush. With a
// 256-request window and an hour-long AssignBatchWindow, a second Set issued
// right after the first is answered within seconds only if it did not wait
// for the window timer.
func TestLiveDurableIdleFlushEveryDrain(t *testing.T) {
	dir := t.TempDir()
	var medias []*wal.FileMedia
	defer func() {
		for _, m := range medias {
			m.Close()
		}
	}()
	rt := live.NewRuntime(live.WithSeed(44))
	done := make(chan client.Result, 2)
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 0, Deadline: 500 * ms, MinProb: 0.5},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			ctx.SetTimer(10*ms, func() {
				gw.Invoke("Set", []byte("a=1"), func(r client.Result) {
					done <- r
					gw.Invoke("Set", []byte("a=2"), func(r client.Result) { done <- r })
				})
			})
		},
	}}
	svc := testService(3, 1, 500*ms)
	svc.AssignBatch = 256
	svc.AssignBatchWindow = time.Hour
	svc.Durable = true
	svc.ReplicatedAssign = true
	svc.NewMedia = func(id node.ID) (wal.Media, error) {
		m, err := wal.NewFileMedia(filepath.Join(dir, string(id)))
		if err != nil {
			return nil, err
		}
		medias = append(medias, m)
		return m, nil
	}
	if _, err := Deploy(rt, svc, clients); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	for i, want := range []string{"v1", "v2"} {
		select {
		case r := <-done:
			if r.Err != "" || string(r.Payload) != want {
				t.Fatalf("write %d = %+v, want %s", i+1, r, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Set %d unanswered after 5 s: the window waited for its hour-long timer", i+1)
		}
	}
}

// TestLiveTCPEndToEnd splits the deployment across two "processes" (two
// live runtimes bridged by real TCP): replicas in one, the client in the
// other.
func TestLiveTCPEndToEnd(t *testing.T) {
	serverRT := live.NewRuntime(live.WithSeed(1))
	clientRT := live.NewRuntime(live.WithSeed(2))

	serverTR, err := tcpnet.New(serverRT, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer serverTR.Close()
	clientTR, err := tcpnet.New(clientRT, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer clientTR.Close()
	serverRT.SetRemote(serverTR.Send)
	clientRT.SetRemote(clientTR.Send)

	// Replica nodes live in serverRT; the client gateway in clientRT. Each
	// transport maps the other side's node IDs.
	serverTR.AddPeer("c00", clientTR.Addr())
	for _, id := range []node.ID{"p00", "p01", "p02", "s00", "s01"} {
		clientTR.AddPeer(id, serverTR.Addr())
	}

	// Deploy replicas on the server runtime and the client on the client
	// runtime by using a split registrar.
	var gotRead atomic.Value
	split := splitRuntime{
		pick: func(id node.ID) Runtime {
			if id[0] == 'c' {
				return clientRT
			}
			return serverRT
		},
	}
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 0, Deadline: time.Second, MinProb: 0.5},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			ctx.SetTimer(20*ms, func() {
				gw.Invoke("Set", []byte("a=tcp"), func(client.Result) {
					gw.Invoke("Get", []byte("a"), func(r client.Result) {
						gotRead.Store(r)
					})
				})
			})
		},
	}}
	if _, err := Deploy(&split, testService(3, 2, 500*ms), clients); err != nil {
		t.Fatal(err)
	}
	serverRT.Start()
	clientRT.Start()
	defer serverRT.Stop()
	defer clientRT.Stop()

	waitFor(t, func() bool { return gotRead.Load() != nil }, "read over TCP")
	r := gotRead.Load().(client.Result)
	if r.Err != "" || string(r.Payload) != "tcp" {
		t.Fatalf("read = %+v", r)
	}
}

// splitRuntime routes registrations to different runtimes by node ID.
type splitRuntime struct {
	pick func(node.ID) Runtime
}

func (s *splitRuntime) Register(id node.ID, n node.Node) {
	s.pick(id).Register(id, n)
}

func TestLiveRuntimeSequencerFailover(t *testing.T) {
	rt := live.NewRuntime(live.WithSeed(99))
	var completed atomic.Int64
	clients := []ClientConfig{{
		ID:      "c00",
		Spec:    qos.Spec{Staleness: 2, Deadline: time.Second, MinProb: 0.5},
		Methods: kvMethods(),
		Driver: func(ctx node.Context, gw *client.Gateway) {
			var issue func(i int)
			issue = func(i int) {
				if i >= 30 {
					return
				}
				gw.Invoke("Set", []byte(fmt.Sprintf("k=%d", i)), func(client.Result) {
					completed.Add(1)
					ctx.SetTimer(20*time.Millisecond, func() { issue(i + 1) })
				})
			}
			ctx.SetTimer(10*time.Millisecond, func() { issue(0) })
		},
	}}
	svc := testService(3, 2, 300*ms)
	d, err := Deploy(rt, svc, clients)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	waitFor(t, func() bool { return completed.Load() >= 5 }, "first updates")
	rt.StopNode("p00") // crash the sequencer, in real time
	waitFor(t, func() bool { return completed.Load() == 30 }, "updates across live failover")

	waitFor(t, func() bool { return d.Replicas["p01"].IsLeader() }, "p01 leadership")
	if got := d.Replicas["p02"].Applied(); got != 30 {
		t.Fatalf("p02 applied %d, want 30", got)
	}
}

// TestLiveTCPReplicaRecoversFromFileMedia runs p02 alone in one "process"
// over TCP with a file-backed WAL, stops that process after N updates, and
// restarts it from the same directory on a new port — as a restarted aquad
// would, through NewDeployment + Host. The new incarnation must recover the
// exact pre-stop commit frontier from disk and serve a read with a = 0.
func TestLiveTCPReplicaRecoversFromFileMedia(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	var medias []*wal.FileMedia
	defer func() {
		for _, m := range medias {
			m.Close()
		}
	}()
	var p02Applied atomic.Int64
	var readNow atomic.Bool
	var got atomic.Value
	svc := testService(3, 1, 300*ms)
	svc.Durable = true
	svc.NewMedia = func(id node.ID) (wal.Media, error) {
		if id != "p02" {
			return wal.NewMemMedia(), nil
		}
		m, err := wal.NewFileMedia(filepath.Join(dir, string(id)))
		if err != nil {
			return nil, err
		}
		medias = append(medias, m)
		return m, nil
	}
	svc.OnApply = func(id node.ID, _ uint64, _ consistency.RequestID) {
		if id == "p02" {
			p02Applied.Add(1)
		}
	}
	clients := []ClientConfig{{
		ID:       "c00",
		Spec:     qos.Spec{Staleness: 0, Deadline: time.Second, MinProb: 0.5},
		Methods:  kvMethods(),
		Selector: fixedSelector{ids: []node.ID{"p02"}}, // reads go to p02 only
		Driver: func(ctx node.Context, gw *client.Gateway) {
			var issue func(i int)
			issue = func(i int) {
				if i < n {
					gw.Invoke("Set", []byte(fmt.Sprintf("k=%d", i)), func(client.Result) { issue(i + 1) })
					return
				}
				if !readNow.Load() {
					ctx.SetTimer(5*ms, func() { issue(i) })
					return
				}
				gw.Invoke("Get", []byte("k"), func(r client.Result) { got.Store(r) })
			}
			ctx.SetTimer(20*ms, func() { issue(0) })
		},
	}}

	type proc struct {
		rt *live.Runtime
		tr *tcpnet.Transport
	}
	mkProc := func(seed int64) proc {
		rt := live.NewRuntime(live.WithSeed(seed))
		tr, err := tcpnet.New(rt, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetRemote(tr.Send)
		return proc{rt, tr}
	}
	rest := []node.ID{"p00", "p01", "s00", "c00"}
	a, b := mkProc(1), mkProc(2)
	defer a.tr.Close()
	link := func(b proc) {
		a.tr.AddPeer("p02", b.tr.Addr())
		for _, id := range rest {
			b.tr.AddPeer(id, a.tr.Addr())
		}
	}
	link(b)

	d, err := NewDeployment(svc, client.ServiceInfo{Primaries: []node.ID{"p00", "p01", "p02"}, Secondaries: []node.ID{"s00"}, Sequencer: "p00"}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Host(a.rt, rest...); err != nil {
		t.Fatal(err)
	}
	if err := d.Host(b.rt, "p02"); err != nil {
		t.Fatal(err)
	}
	a.rt.Start()
	defer a.rt.Stop()
	b.rt.Start()
	waitFor(t, func() bool { return p02Applied.Load() == n }, "p02 applies every update")
	b.rt.Stop()
	b.tr.Close()
	before := d.Replicas["p02"].CSN()
	medias[0].Close()
	if before != n {
		t.Fatalf("p02 CSN before the stop = %d, want %d", before, n)
	}

	// The restarted process: a fresh runtime and transport on a new port,
	// and a fresh deployment over the same WAL directory.
	b = mkProc(3)
	defer b.tr.Close()
	link(b)
	d2, err := NewDeployment(svc, d.Info, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Host(b.rt, "p02"); err != nil {
		t.Fatal(err)
	}
	b.rt.Start()
	readNow.Store(true)
	waitFor(t, func() bool { return got.Load() != nil }, "a = 0 read from the recovered p02")
	b.rt.Stop()
	if rec := d2.Replicas["p02"].Recovered(); rec != before {
		t.Fatalf("recovered CSN %d, want the pre-stop %d", rec, before)
	}
	r := got.Load().(client.Result)
	if r.Err != "" || r.Replica != "p02" || string(r.Payload) != fmt.Sprint(n-1) {
		t.Fatalf("read = %+v, want %d from p02", r, n-1)
	}
}
