package tcpnet

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/obs"
)

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timeout waiting for: " + msg)
}

// twoProcesses wires two live runtimes through real TCP loopback.
func twoProcesses(t *testing.T, aNode, bNode node.Node) (cleanup func()) {
	t.Helper()
	rtA := live.NewRuntime()
	rtB := live.NewRuntime()

	trA, err := New(rtA, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := New(rtB, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	trA.AddPeer("b", trB.Addr())
	trB.AddPeer("a", trA.Addr())
	rtA.SetRemote(trA.Send)
	rtB.SetRemote(trB.Send)

	rtA.Register("a", aNode)
	rtB.Register("b", bNode)
	rtA.Start()
	rtB.Start()
	return func() {
		rtA.Stop()
		rtB.Stop()
		trA.Close()
		trB.Close()
	}
}

func TestTCPRoundTrip(t *testing.T) {
	var echoed atomic.Bool
	a := &node.FuncNode{
		OnInit: func(ctx node.Context) {
			ctx.Send("b", consistency.Request{Method: "Get", Payload: []byte("k")})
		},
		OnRecv: func(from node.ID, m node.Message) {
			// Flatten: the live inbound path boxes hot types as pointers.
			if r, ok := Flatten(m).(consistency.Reply); ok && string(r.Payload) == "pong" {
				echoed.Store(true)
			}
		},
	}
	b := &node.FuncNode{
		OnRecv: func(from node.ID, m node.Message) {
			// Reply over TCP requires a context captured at Init; use the
			// sender address from the frame instead.
		},
	}
	var bCtx atomic.Value
	b = &node.FuncNode{
		OnInit: func(ctx node.Context) { bCtx.Store(ctx) },
		OnRecv: func(from node.ID, m node.Message) {
			if req, ok := Flatten(m).(consistency.Request); ok && req.Method == "Get" {
				bCtx.Load().(node.Context).Send(from, consistency.Reply{Payload: []byte("pong")})
			}
		},
	}
	cleanup := twoProcesses(t, a, b)
	defer cleanup()
	waitFor(t, echoed.Load, "TCP round trip")
}

func TestTCPCarriesAllProtocolTypes(t *testing.T) {
	var count atomic.Int64
	msgs := []node.Message{
		consistency.Request{ID: consistency.RequestID{Client: "a", Seq: 1}, Method: "Set", Payload: []byte("x=1")},
		consistency.Reply{Payload: []byte("ok"), T1: 3 * time.Millisecond, Replica: "b"},
		consistency.GSNAssign{GSN: 7, Update: true},
		consistency.GSNRequest{Update: true},
		consistency.GSNQuery{Epoch: 2},
		consistency.GSNReport{Epoch: 2, GSN: 9},
		consistency.StateUpdate{CSN: 4, Snapshot: []byte{1, 2}},
		consistency.PerfBroadcast{Replica: "b", TS: time.Millisecond, IsPublisher: true, NU: 3},
		consistency.SequencerAnnounce{Sequencer: "p01"},
	}
	a := &node.FuncNode{
		OnInit: func(ctx node.Context) {
			for _, m := range msgs {
				ctx.Send("b", m)
			}
		},
	}
	b := &node.FuncNode{
		OnRecv: func(from node.ID, m node.Message) { count.Add(1) },
	}
	cleanup := twoProcesses(t, a, b)
	defer cleanup()
	waitFor(t, func() bool { return count.Load() == int64(len(msgs)) }, "all protocol types")
}

func TestTCPUnknownPeerDropped(t *testing.T) {
	rt := live.NewRuntime()
	tr, err := New(rt, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Send("a", "nobody", consistency.GSNQuery{}) // must not panic or block
}

func TestTCPUnreachablePeerDropped(t *testing.T) {
	rt := live.NewRuntime()
	tr, err := New(rt, "127.0.0.1:0", map[node.ID]string{"b": "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Send("a", "b", consistency.GSNQuery{}) // connection refused: dropped
}

func TestTCPCloseIdempotent(t *testing.T) {
	rt := live.NewRuntime()
	tr, err := New(rt, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Send("a", "b", consistency.GSNQuery{}) // after close: dropped
}

func TestTCPAddrReportsBoundPort(t *testing.T) {
	rt := live.NewRuntime()
	tr, err := New(rt, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Addr() == "127.0.0.1:0" || tr.Addr() == "" {
		t.Fatalf("Addr = %q", tr.Addr())
	}
}

// counterValue reads one named counter out of a registry snapshot.
func counterValue(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return uint64(s.Value)
		}
	}
	t.Fatalf("counter %s not in snapshot", name)
	return 0
}

// TestTCPConcurrentSendersFraming hammers one connection from many
// goroutines at once: every frame must arrive intact (frames from
// concurrent Sends must never interleave on the wire) and the traffic
// counters must account for each one exactly once.
func TestTCPConcurrentSendersFraming(t *testing.T) {
	const senders, perSender = 8, 50

	var got atomic.Int64
	var wrong atomic.Int64
	b := &node.FuncNode{
		OnRecv: func(from node.ID, m node.Message) {
			req, ok := Flatten(m).(consistency.Request)
			if !ok || req.Method != "Set" || string(req.Payload) != "k=v" {
				wrong.Add(1)
				return
			}
			got.Add(1)
		},
	}

	rtA, rtB := live.NewRuntime(), live.NewRuntime()
	trA, err := New(rtA, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := New(rtB, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	trA.AddPeer("b", trB.Addr())
	reg := obs.NewRegistry()
	trA.Instrument(reg)
	rtB.SetRemote(trB.Send)
	rtB.Register("b", b)
	rtB.Start()
	defer rtB.Stop()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := node.ID(fmt.Sprintf("a%02d", s))
			for i := uint64(0); i < perSender; i++ {
				trA.Send(from, "b", consistency.Request{
					ID:      consistency.RequestID{Client: from, Seq: i},
					Method:  "Set",
					Payload: []byte("k=v"),
				})
			}
		}(s)
	}
	wg.Wait()

	waitFor(t, func() bool { return got.Load() == senders*perSender }, "all concurrent frames")
	if wrong.Load() != 0 {
		t.Fatalf("%d frames arrived corrupted", wrong.Load())
	}
	if sent := counterValue(t, reg, "tcpnet_messages_sent_total"); sent != senders*perSender {
		t.Fatalf("messagesSent = %d, want %d", sent, senders*perSender)
	}
	if counterValue(t, reg, "tcpnet_bytes_sent_total") == 0 {
		t.Fatal("bytesSent = 0, want > 0")
	}
}

// TestTCPLargeFramesAcrossSlabs drives the inbound reader past its slab:
// a 1 MiB StateUpdate (the size of the qos-reads lazy snapshot, four times
// readSlab) fanned out to two peers through the writer's vectored splice,
// interleaved with Requests sized so frames straddle slab boundaries — one
// just under readSlab, which fits only a fresh slab — forcing the reader to
// carry partial tails into fresh slabs. Every frame must arrive intact and
// in order at both peers.
func TestTCPLargeFramesAcrossSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	su := consistency.StateUpdate{CSN: 9, Snapshot: randBytes(rng, 1<<20),
		RecentIDs: []consistency.RequestID{{Client: "c00", Seq: 4}}}
	var script []node.Message
	for round := 0; round < 3; round++ {
		for _, n := range []int{16, readSlab - 64, 100 << 10, 1, 200 << 10, readMinFree} {
			script = append(script, consistency.Request{
				ID:     consistency.RequestID{Client: "a", Seq: uint64(len(script))},
				Method: "Set", Payload: randBytes(rng, n),
			})
		}
		// The same value for both peers: the second encode is a cache hit
		// and both writers splice the one cached body.
		script = append(script, group.DataMsg{Seq: uint64(round), Payload: su})
	}

	trA, err := New(live.NewRuntime(), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	var mu sync.Mutex
	got := map[node.ID][]node.Message{}
	for _, id := range []node.ID{"b", "c"} {
		id := id
		rt := live.NewRuntime()
		tr, err := New(rt, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		rt.Register(id, &node.FuncNode{OnRecv: func(_ node.ID, m node.Message) {
			mu.Lock()
			got[id] = append(got[id], Flatten(m))
			mu.Unlock()
		}})
		rt.Start()
		defer rt.Stop()
		trA.AddPeer(id, tr.Addr())
	}

	for _, m := range script {
		trA.Send("a", "b", m)
		trA.Send("a", "c", m)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got["b"]) == len(script) && len(got["c"]) == len(script)
	}, "every frame at both peers")
	mu.Lock()
	defer mu.Unlock()
	for id, msgs := range got {
		for i, m := range msgs {
			if !reflect.DeepEqual(m, script[i]) {
				t.Fatalf("%s: frame %d arrived as %T, not the %T sent at that position (or corrupted)",
					id, i, m, script[i])
			}
		}
	}
}

// TestTCPDialRetryAbsorbsLateListener reproduces the startup race the retry
// policy exists for: the first Send happens before the peer process has
// bound its listener, and a retry within the backoff ladder (0/25/50/100 ms)
// — run by the peer's writer goroutine, not the Send caller — must still
// deliver the frame.
func TestTCPDialRetryAbsorbsLateListener(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: real dial-backoff timing")
	}
	// Reserve an address, then free it so the late listener can bind it.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	rtA := live.NewRuntime()
	trA, err := New(rtA, "127.0.0.1:0", map[node.ID]string{"b": addr})
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()

	var got atomic.Int64
	var trB *Transport
	var trBMu sync.Mutex
	time.AfterFunc(60*time.Millisecond, func() {
		rtB := live.NewRuntime()
		tr, err := New(rtB, addr, nil)
		if err != nil {
			return // port stolen between probe and bind; Send fails the test
		}
		rtB.SetRemote(tr.Send)
		rtB.Register("b", &node.FuncNode{
			OnRecv: func(node.ID, node.Message) { got.Add(1) },
		})
		rtB.Start()
		trBMu.Lock()
		trB = tr
		trBMu.Unlock()
	})
	defer func() {
		trBMu.Lock()
		if trB != nil {
			trB.Close()
		}
		trBMu.Unlock()
	}()

	trA.Send("a", "b", consistency.GSNQuery{Epoch: 1}) // returns at once; writer retries
	waitFor(t, func() bool { return got.Load() == 1 }, "delivery after dial retry")
}

// TestTCPDialCooldownBoundsOutageCost verifies that once the writer's retry
// budget is exhausted, frames sent during the cooldown window drop without
// re-paying the backoff ladder (no further dial attempts).
func TestTCPDialCooldownBoundsOutageCost(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: real dial-backoff timing")
	}
	rt := live.NewRuntime()
	// 127.0.0.1:1 refuses instantly, so the writer's dial ladder costs only
	// the backoff sleeps (~175 ms) before entering cooldown.
	tr, err := New(rt, "127.0.0.1:0", map[node.ID]string{"b": "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := obs.NewRegistry()
	tr.Instrument(reg)

	tr.Send("a", "b", consistency.GSNQuery{Epoch: 1}) // writer exhausts the retries
	waitFor(t, func() bool {
		return counterValue(t, reg, "tcpnet_drops_total") == 1
	}, "first frame dropped after retry ladder")
	dialsAfterFirst := counterValue(t, reg, "tcpnet_dial_failures_total")
	if dialsAfterFirst != dialAttempts {
		t.Fatalf("first send made %d dial attempts, want %d", dialsAfterFirst, dialAttempts)
	}

	tr.Send("a", "b", consistency.GSNQuery{Epoch: 2}) // in cooldown: drops fast
	waitFor(t, func() bool {
		return counterValue(t, reg, "tcpnet_drops_total") == 2
	}, "second frame dropped in cooldown")
	if counterValue(t, reg, "tcpnet_dial_failures_total") != dialsAfterFirst {
		t.Fatal("send during cooldown re-dialed")
	}
}

// TestTCPSendNonBlockingDuringOutage is the Send latency contract: no code
// path reachable from live.Runtime may sleep in Send, so a Send to a down
// peer that is NOT yet in dial cooldown — the worst case, where the old
// transport slept through the whole backoff ladder — must return in under
// a millisecond. The dial ladder runs concurrently on the writer goroutine.
func TestTCPSendNonBlockingDuringOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: wall-clock latency assertion")
	}
	rt := live.NewRuntime()
	tr, err := New(rt, "127.0.0.1:0", map[node.ID]string{"b": "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for i := 0; i < 50; i++ {
		start := time.Now()
		tr.Send("a", "b", consistency.GSNQuery{Epoch: uint64(i)})
		if elapsed := time.Since(start); elapsed >= time.Millisecond {
			t.Fatalf("Send %d to down peer took %v, want < 1ms", i, elapsed)
		}
	}
}

// TestTCPReconnectMidStreamExactlyOnce runs the paper's reliability layering
// end to end over real sockets: a group.Stack sends a stream of sequenced
// payloads across the transport while the test severs every TCP connection
// twice mid-stream. The length-prefixed codec must resynchronize on the
// re-dialed connections (a frame boundary starts every stream) and the
// stack's ack/retransmit must hand every payload to the app layer exactly
// once, in order.
func TestTCPReconnectMidStreamExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: real sockets and retransmit timers")
	}
	const total = 100
	gcfg := group.Config{
		RetransmitInterval: 20 * time.Millisecond,
		MaxRetries:         1000, // never presume the peer dead: outages here are transient
	}

	var mu sync.Mutex
	seen := make(map[uint64]int)
	var delivered atomic.Int64

	type stackHolder struct{ s *group.Stack }
	recvH := &stackHolder{}
	recv := &node.FuncNode{
		OnInit: func(ctx node.Context) {
			recvH.s = group.NewStack(ctx, gcfg, func(from node.ID, m node.Message) {
				req := Flatten(m).(consistency.Request)
				mu.Lock()
				seen[req.ID.Seq]++
				mu.Unlock()
				delivered.Add(1)
			})
		},
		OnRecv: func(from node.ID, m node.Message) { recvH.s.Handle(from, m) },
	}
	sendH := &stackHolder{}
	send := &node.FuncNode{
		OnInit: func(ctx node.Context) {
			sendH.s = group.NewStack(ctx, gcfg, func(node.ID, node.Message) {})
			for i := uint64(1); i <= total; i++ {
				sendH.s.Send("b", consistency.Request{
					ID:     consistency.RequestID{Client: "a", Seq: i},
					Method: "Set", Payload: []byte("k=v"),
				})
			}
		},
		OnRecv: func(from node.ID, m node.Message) { sendH.s.Handle(from, m) },
	}

	rtA, rtB := live.NewRuntime(), live.NewRuntime()
	trA, err := New(rtA, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := New(rtB, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	trA.AddPeer("b", trB.Addr())
	trB.AddPeer("a", trA.Addr())
	rtA.SetRemote(trA.Send)
	rtB.SetRemote(trB.Send)
	rtB.Register("b", recv)
	rtB.Start()
	defer rtB.Stop()
	rtA.Register("a", send)
	rtA.Start()
	defer rtA.Stop()

	// Sever every connection twice while the stream is in flight.
	for _, cut := range []int64{total / 3, 2 * total / 3} {
		cut := cut
		waitFor(t, func() bool { return delivered.Load() >= cut }, "progress before cut")
		trA.dropConnections()
		trB.dropConnections()
	}

	waitFor(t, func() bool {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		return n == total
	}, "all payloads delivered across reconnects")
	mu.Lock()
	defer mu.Unlock()
	for i := uint64(1); i <= total; i++ {
		if seen[i] != 1 {
			t.Fatalf("payload %d delivered %d times, want exactly once", i, seen[i])
		}
	}
}

func TestTCPPeerProcessRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: real sockets and re-dial timing")
	}
	// Process B dies and a new incarnation binds the same node ID at a new
	// address; A keeps talking after AddPeer remaps it. The group layer
	// above recovers ordering/reliability; here we verify the transport
	// itself re-dials and delivers.
	rtA := live.NewRuntime()
	trA, err := New(rtA, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	rtA.SetRemote(trA.Send)

	var got atomic.Int64
	mkB := func() (*live.Runtime, *Transport) {
		rtB := live.NewRuntime()
		trB, err := New(rtB, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		rtB.SetRemote(trB.Send)
		rtB.Register("b", &node.FuncNode{
			OnRecv: func(node.ID, node.Message) { got.Add(1) },
		})
		rtB.Start()
		return rtB, trB
	}

	rtB1, trB1 := mkB()
	trA.AddPeer("b", trB1.Addr())
	rtA.Register("a", &node.FuncNode{})
	rtA.Start()
	defer rtA.Stop()

	trA.Send("a", "b", consistency.GSNQuery{Epoch: 1})
	waitFor(t, func() bool { return got.Load() == 1 }, "first incarnation delivery")

	// Kill B entirely.
	rtB1.Stop()
	trB1.Close()
	trA.Send("a", "b", consistency.GSNQuery{Epoch: 2}) // dropped (broken pipe)

	// New incarnation at a new port.
	rtB2, trB2 := mkB()
	defer rtB2.Stop()
	defer trB2.Close()
	trA.AddPeer("b", trB2.Addr())

	// Sends re-dial the remapped address; allow for the one dropped frame
	// that flushed into the dead connection's buffer.
	waitFor(t, func() bool {
		trA.Send("a", "b", consistency.GSNQuery{Epoch: 3})
		return got.Load() >= 2
	}, "second incarnation delivery")
}
