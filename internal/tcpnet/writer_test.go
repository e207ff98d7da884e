package tcpnet

import (
	"encoding/binary"
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

// TestWriterRingOverflowAccounting hammers one peer's bounded send ring
// from concurrent senders while the peer is unreachable, then checks the
// books balance exactly: every enqueued frame is either a counted drop
// (ring overflow or failed-dial flush) — never lost silently, never
// double-counted — and the queue-depth gauge returns to zero. Run under
// -race in CI.
func TestWriterRingOverflowAccounting(t *testing.T) {
	rt := live.NewRuntime()
	defer rt.Stop()
	// Peer address points at a fresh, unbound port: dials fail, so nothing
	// is ever delivered and every send must eventually surface as a drop.
	probe, err := New(rt, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := probe.Addr()
	probe.Close() // release the port; nothing listens there now

	tr, err := New(rt, "127.0.0.1:0", map[node.ID]string{"peer": deadAddr},
		WithSendQueue(8))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := obs.NewRegistry()
	tr.Instrument(reg)

	const senders, perSender = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				tr.Send("local", "peer", consistency.GSNQuery{Epoch: uint64(i)})
			}
		}()
	}
	wg.Wait()

	const total = senders * perSender
	waitFor(t, func() bool {
		return counterValue(t, reg, "tcpnet_drops_total") == total
	}, "all sends accounted as drops")
	waitFor(t, func() bool {
		return gaugeValue(t, reg, "tcpnet_send_queue_depth") == 0
	}, "queue depth back to zero")
	if sent := counterValue(t, reg, "tcpnet_messages_sent_total"); sent != 0 {
		t.Fatalf("messages_sent = %d with no reachable peer", sent)
	}
}

func gaugeValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return int64(s.Value)
		}
	}
	t.Fatalf("gauge %s not in snapshot", name)
	return 0
}

// recordConn stands in for a peer connection and keeps every Write whole,
// decoded, so a test sees which frames shared one write and when it
// happened. When hold is set, the first Write sends on it once entered and
// then waits to receive from it, so a test can queue frames while the
// writer is inside a write.
type recordConn struct {
	net.Conn // nil: the writer calls only Write and Close

	mu     sync.Mutex
	writes []recordedWrite
	hold   chan struct{}
}

type recordedWrite struct {
	at   time.Time
	msgs []node.Message
}

func (c *recordConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	hold := c.hold
	c.hold = nil
	c.mu.Unlock()
	if hold != nil {
		hold <- struct{}{}
		<-hold
	}
	w := recordedWrite{at: time.Now()}
	for r := b; len(r) >= 4; {
		n := int(binary.BigEndian.Uint32(r))
		_, _, m, err := DecodeFrame(r[4 : 4+n])
		if err != nil {
			panic(err)
		}
		w.msgs = append(w.msgs, m)
		r = r[4+n:]
	}
	c.mu.Lock()
	c.writes = append(c.writes, w)
	c.mu.Unlock()
	return len(b), nil
}

func (c *recordConn) Close() error { return nil }

func (c *recordConn) recorded() []recordedWrite {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]recordedWrite(nil), c.writes...)
}

// newRecordedWriter returns a peer writer already connected to a
// recordConn; its goroutine is not started, so frames enqueued before
// startWriter all meet in its first batch.
func newRecordedWriter(reg *obs.Registry) (*peerWriter, *recordConn) {
	tr := &Transport{}
	tr.Instrument(reg)
	w := newPeerWriter(tr, "recorded", 64)
	c := &recordConn{}
	w.setConn(c)
	return w, c
}

func startWriter(t *testing.T, w *peerWriter) {
	w.t.wg.Add(1)
	go w.run()
	t.Cleanup(func() {
		w.shutdown()
		w.t.wg.Wait()
	})
}

func waitWrites(t *testing.T, c *recordConn, n int) []recordedWrite {
	t.Helper()
	waitFor(t, func() bool { return len(c.recorded()) >= n }, "writes recorded")
	return c.recorded()
}

// TestWriterAckOnlyQueueLingers: an ack with no frame to ride leaves on
// its own, no sooner than ackLinger after it was queued and not much later.
func TestWriterAckOnlyQueueLingers(t *testing.T) {
	w, c := newRecordedWriter(nil)
	startWriter(t, w)
	ack := group.AckMsg{SrcEpoch: 1, DstEpoch: 2, Gen: 1, Expected: 7}
	start := time.Now()
	w.enqueue("a", "b", ack)
	got := waitWrites(t, c, 1)
	if len(got) != 1 || !reflect.DeepEqual(got[0].msgs, []node.Message{ack}) {
		t.Fatalf("writes = %+v, want one write of the ack", got)
	}
	const slack = 200 * time.Millisecond // a loaded host under -race
	if d := got[0].at.Sub(start); d < ackLinger || d > ackLinger+slack {
		t.Fatalf("ack left after %v, want between %v and %v", d, ackLinger, ackLinger+slack)
	}
}

// TestWriterAcksRideDataWrite: acks queued before a data frame to the same
// peer leave in that frame's write, ahead of it.
func TestWriterAcksRideDataWrite(t *testing.T) {
	ack1 := group.AckMsg{SrcEpoch: 1, DstEpoch: 2, Gen: 1, Expected: 3}
	ack2 := group.AckMsg{SrcEpoch: 5, DstEpoch: 6, Gen: 1, Expected: 9}
	data := group.DataMsg{SrcEpoch: 2, Gen: 1, Seq: 4, Payload: consistency.GSNQuery{Epoch: 1}}
	want := []node.Message{ack1, ack2, data}

	t.Run("queued before the writer runs", func(t *testing.T) {
		w, c := newRecordedWriter(nil)
		w.enqueue("a", "b", ack1)
		w.enqueue("c", "b", ack2)
		w.enqueue("a", "b", data)
		startWriter(t, w)
		got := waitWrites(t, c, 1)
		if len(got) != 1 || !reflect.DeepEqual(got[0].msgs, want) {
			t.Fatalf("writes = %+v, want one write of %v", got, want)
		}
	})
	t.Run("queued during a write", func(t *testing.T) {
		w, c := newRecordedWriter(nil)
		hold := make(chan struct{})
		c.hold = hold
		startWriter(t, w)
		first := consistency.GSNQuery{Epoch: 9}
		w.enqueue("a", "b", first)
		<-hold // the writer is inside the write of first
		w.enqueue("a", "b", ack1)
		w.enqueue("c", "b", ack2)
		w.enqueue("a", "b", data)
		hold <- struct{}{}
		got := waitWrites(t, c, 2)
		if len(got) != 2 || !reflect.DeepEqual(got[0].msgs, []node.Message{first}) ||
			!reflect.DeepEqual(got[1].msgs, want) {
			t.Fatalf("writes = %+v, want [%v] then %v", got, first, want)
		}
	})
	t.Run("many links", func(t *testing.T) {
		w, c := newRecordedWriter(nil)
		var many []node.Message
		for i := uint64(1); i <= 100; i++ {
			ack := group.AckMsg{SrcEpoch: i, DstEpoch: 2, Gen: 1, Expected: i}
			w.enqueue("a", "b", ack)
			many = append(many, ack)
		}
		w.enqueue("a", "b", data)
		many = append(many, data)
		startWriter(t, w)
		got := waitWrites(t, c, 1)
		if len(got) != 1 || !reflect.DeepEqual(got[0].msgs, many) {
			t.Fatalf("got %d writes, want one write of 100 acks and the data frame", len(got))
		}
	})
}

// TestWriterAckSupersedesOnlySameLink: a newer ack replaces the held one
// only on the same (from, to, SrcEpoch, DstEpoch, Gen), keeping the larger
// Expected; every superseded ack is counted as merged.
func TestWriterAckSupersedesOnlySameLink(t *testing.T) {
	reg := obs.NewRegistry()
	w, c := newRecordedWriter(reg)
	base := group.AckMsg{SrcEpoch: 1, DstEpoch: 2, Gen: 3, Expected: 5}
	w.enqueue("a", "b", group.AckMsg{SrcEpoch: 1, DstEpoch: 2, Gen: 3, Expected: 4})
	w.enqueue("a", "b", base)                                                        // supersedes Expected 4
	w.enqueue("a", "b", group.AckMsg{SrcEpoch: 1, DstEpoch: 2, Gen: 3, Expected: 4}) // older: dropped
	others := []struct {
		from, to node.ID
		ack      group.AckMsg
	}{
		{"x", "b", base},
		{"a", "y", base},
		{"a", "b", group.AckMsg{SrcEpoch: 9, DstEpoch: 2, Gen: 3, Expected: 1}},
		{"a", "b", group.AckMsg{SrcEpoch: 1, DstEpoch: 9, Gen: 3, Expected: 1}},
		{"a", "b", group.AckMsg{SrcEpoch: 1, DstEpoch: 2, Gen: 9, Expected: 1}},
	}
	for _, o := range others {
		w.enqueue(o.from, o.to, o.ack)
	}
	w.enqueue("a", "b", consistency.GSNQuery{Epoch: 1})
	startWriter(t, w)
	got := waitWrites(t, c, 1)

	want := []node.Message{base}
	for _, o := range others {
		want = append(want, o.ack)
	}
	want = append(want, consistency.GSNQuery{Epoch: 1})
	if len(got) != 1 || !reflect.DeepEqual(got[0].msgs, want) {
		t.Fatalf("writes = %+v, want one write of %v", got, want)
	}
	if m := counterValue(t, reg, "tcpnet_acks_merged_total"); m != 2 {
		t.Fatalf("acks merged = %d, want 2", m)
	}
	if sent := counterValue(t, reg, "tcpnet_messages_sent_total"); sent != uint64(len(want)) {
		t.Fatalf("messages sent = %d, want %d", sent, len(want))
	}
}

// TestWriterAckEnqueueZeroAlloc: holding an ack, superseding it, and the
// writer taking it into a batch allocate nothing, like any other enqueue.
func TestWriterAckEnqueueZeroAlloc(t *testing.T) {
	w, _ := newRecordedWriter(nil)
	var first, next node.Message = group.AckMsg{SrcEpoch: 1, Gen: 1, Expected: 1},
		group.AckMsg{SrcEpoch: 1, Gen: 1, Expected: 2}
	a := testing.AllocsPerRun(100, func() {
		w.enqueue("a", "b", first) // held: the first ack wakes the writer
		w.enqueue("a", "b", next)  // supersedes it
		w.mu.Lock()
		w.takeBatch()
		w.mu.Unlock()
	})
	if a != 0 {
		t.Fatalf("ack enqueue allocated %.1f/op, want 0", a)
	}
}

// TestWriterAckLingerBelowRetransmit: holding an ack must never make the
// sender retransmit what the receiver already has.
func TestWriterAckLingerBelowRetransmit(t *testing.T) {
	if r := group.DefaultConfig().RetransmitInterval; ackLinger*10 > r {
		t.Fatalf("ackLinger %v is more than a tenth of the retransmit interval %v", ackLinger, r)
	}
}

// TestWriterAckAccounting: concurrent senders queue acks on a few links
// and data frames; every ack is sent, dropped or merged exactly once, and
// the queue-depth gauge returns to zero, both toward a reachable peer and
// toward an unreachable one. Run under -race in CI.
func TestWriterAckAccounting(t *testing.T) {
	const senders, perSender = 4, 300
	send := func(tr *Transport) {
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				from := node.ID([]string{"a", "b"}[g%2])
				for i := 0; i < perSender; i++ {
					if i%10 == 9 {
						tr.Send(from, "peer", consistency.GSNQuery{Epoch: uint64(i)})
						continue
					}
					tr.Send(from, "peer", group.AckMsg{SrcEpoch: uint64(g), Gen: 1, Expected: uint64(i)})
				}
			}(g)
		}
		wg.Wait()
	}
	const total = senders * perSender

	t.Run("reachable", func(t *testing.T) {
		var recv atomic.Uint64
		rtSink := live.NewRuntime()
		rtSink.Register("peer", &node.FuncNode{OnRecv: func(node.ID, node.Message) { recv.Add(1) }})
		rtSink.Start()
		defer rtSink.Stop()
		sink, err := New(rtSink, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		rt := live.NewRuntime()
		defer rt.Stop()
		tr, err := New(rt, "127.0.0.1:0", map[node.ID]string{"peer": sink.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		reg := obs.NewRegistry()
		tr.Instrument(reg)
		send(tr)
		waitFor(t, func() bool {
			return counterValue(t, reg, "tcpnet_messages_sent_total")+
				counterValue(t, reg, "tcpnet_acks_merged_total")+
				counterValue(t, reg, "tcpnet_drops_total") == total
		}, "every send accounted as sent, merged or dropped")
		if d := counterValue(t, reg, "tcpnet_drops_total"); d != 0 {
			t.Fatalf("%d drops toward a reachable peer", d)
		}
		sent := counterValue(t, reg, "tcpnet_messages_sent_total")
		waitFor(t, func() bool { return recv.Load() == sent }, "peer received every sent frame")
		if g := gaugeValue(t, reg, "tcpnet_send_queue_depth"); g != 0 {
			t.Fatalf("queue depth %d after every send was accounted", g)
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		rt := live.NewRuntime()
		defer rt.Stop()
		probe, err := New(rt, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := probe.Addr()
		probe.Close()
		tr, err := New(rt, "127.0.0.1:0", map[node.ID]string{"peer": deadAddr}, WithSendQueue(8))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		reg := obs.NewRegistry()
		tr.Instrument(reg)
		send(tr)
		waitFor(t, func() bool {
			return counterValue(t, reg, "tcpnet_drops_total")+
				counterValue(t, reg, "tcpnet_acks_merged_total") == total
		}, "every send accounted as dropped or merged")
		waitFor(t, func() bool {
			return gaugeValue(t, reg, "tcpnet_send_queue_depth") == 0
		}, "queue depth back to zero")
		if sent := counterValue(t, reg, "tcpnet_messages_sent_total"); sent != 0 {
			t.Fatalf("messages_sent = %d with no reachable peer", sent)
		}
	})
}
