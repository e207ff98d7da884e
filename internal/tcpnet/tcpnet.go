// Package tcpnet carries node messages between processes over TCP — the
// real-network transport for the live runtime. Frames travel in a
// length-prefixed binary wire format (see wire.go and DESIGN.md §9): one
// hand-written encoder/decoder per protocol message, so the hot path does
// no reflection and the steady-state encode performs zero heap allocations
// per frame.
//
// One Transport per process: it listens for inbound frames and injects
// them into the local live.Runtime, and its Send method plugs into
// live.WithRemote to forward frames addressed to nodes hosted elsewhere.
// Send never blocks: it enqueues onto a bounded per-peer ring serviced by
// a writer goroutine that batches queued frames into single writes and
// performs all dialing (retry, backoff, cooldown) off the caller path.
//
// Reliability note: TCP provides ordering per connection, but connections
// may drop and be re-dialed (and overflowing send rings shed frames);
// end-to-end reliability and FIFO across reconnects come from the group
// substrate's sequence numbers and ack/retransmit, exactly as with the
// simulated lossy network.
package tcpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/obs"
)

// Dial retry policy: a missing peer at startup (processes come up in
// arbitrary order) gets a few quick retries with doubling backoff; after
// that the address enters a cooldown during which queued frames drop
// immediately. All of it runs on the peer's writer goroutine — a Send
// caller never sleeps in a dial.
const (
	dialAttempts     = 4
	dialBackoffBase  = 25 * time.Millisecond
	dialCooldownSpan = 250 * time.Millisecond
)

// instruments holds the transport's traffic counters; the zero value (no
// registry) is all nil no-ops.
type instruments struct {
	messagesSent *obs.Counter
	bytesSent    *obs.Counter
	messagesRecv *obs.Counter
	bytesRecv    *obs.Counter
	dials        *obs.Counter
	dialFailures *obs.Counter
	accepts      *obs.Counter
	drops        *obs.Counter
	acksMerged   *obs.Counter
	queueDepth   *obs.Gauge
	flushBatch   *obs.Histogram
}

// noInstruments is what an uninstrumented transport records into.
var noInstruments instruments

// Transport is one process's TCP endpoint.
type Transport struct {
	rt       *live.Runtime
	listener net.Listener
	queueCap int

	// insp is published once by Instrument while the accept and read
	// loops may already run; they load it per use, which costs no lock.
	insp atomic.Pointer[instruments]

	mu      sync.Mutex
	peers   map[node.ID]string // node -> address
	writers map[string]*peerWriter
	inbound map[net.Conn]bool
	closed  bool
	wg      sync.WaitGroup

	// suCache amortizes the lazy publisher's fan-out: the same StateUpdate
	// value sent to every secondary in one tick is encoded once and the
	// bytes spliced into each peer's frame.
	suCache stateUpdateCache
}

// Option configures a Transport.
type Option func(*Transport)

// WithSendQueue sets the per-peer send ring capacity in frames (default
// DefaultSendQueue). Overflow frames are counted drops recovered by the
// group substrate's retransmission.
func WithSendQueue(n int) Option {
	return func(t *Transport) {
		if n > 0 {
			t.queueCap = n
		}
	}
}

// New starts a transport listening on listenAddr (e.g. ":7100" or
// "127.0.0.1:0"). peers maps every remote node ID to the address of the
// process hosting it; local IDs need no entry. Pass the returned
// Transport's Send to live.WithRemote.
func New(rt *live.Runtime, listenAddr string, peers map[node.ID]string, opts ...Option) (*Transport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	t := &Transport{
		rt:       rt,
		listener: ln,
		queueCap: DefaultSendQueue,
		peers:    make(map[node.ID]string, len(peers)),
		writers:  make(map[string]*peerWriter),
		inbound:  make(map[net.Conn]bool),
	}
	for id, addr := range peers {
		t.peers[id] = addr
	}
	for _, o := range opts {
		o(t)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with port 0).
func (t *Transport) Addr() string { return t.listener.Addr().String() }

// Instrument attaches traffic counters from reg (nil detaches nothing and
// is a no-op). It is safe while traffic flows, but only what happens after
// it is counted; counters cover frames and bytes in both directions, dial
// and accept activity, group acks superseded by a newer ack before they
// left, the aggregate send-queue depth (held acks included), and the
// per-flush batch size distribution.
func (t *Transport) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.insp.Store(&instruments{
		messagesSent: reg.Counter("tcpnet_messages_sent_total"),
		bytesSent:    reg.Counter("tcpnet_bytes_sent_total"),
		messagesRecv: reg.Counter("tcpnet_messages_recv_total"),
		bytesRecv:    reg.Counter("tcpnet_bytes_recv_total"),
		dials:        reg.Counter("tcpnet_dials_total"),
		dialFailures: reg.Counter("tcpnet_dial_failures_total"),
		accepts:      reg.Counter("tcpnet_accepts_total"),
		drops:        reg.Counter("tcpnet_drops_total"),
		acksMerged:   reg.Counter("tcpnet_acks_merged_total"),
		queueDepth:   reg.Gauge("tcpnet_send_queue_depth"),
		flushBatch:   reg.Histogram("tcpnet_flush_batch_size", obs.DepthBuckets()),
	})
}

// ins returns the attached counters, or no-ops before Instrument.
func (t *Transport) ins() *instruments {
	if p := t.insp.Load(); p != nil {
		return p
	}
	return &noInstruments
}

// AddPeer maps (or remaps) a node ID to an address.
func (t *Transport) AddPeer(id node.ID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[id] = addr
}

// Close stops the listener, every writer goroutine, and all connections.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	writers := make([]*peerWriter, 0, len(t.writers))
	for _, w := range t.writers {
		writers = append(writers, w)
	}
	in := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		in = append(in, c)
	}
	t.mu.Unlock()

	err := t.listener.Close()
	for _, w := range writers {
		w.shutdown()
	}
	for _, c := range in {
		c.Close()
	}
	t.wg.Wait()
	return err
}

// Send forwards a frame to the process hosting 'to'. It is non-blocking:
// the frame is enqueued on the peer's bounded send ring and the per-peer
// writer goroutine does all encoding, dialing, and writing. Messages to
// unknown peers, and frames shed by a full ring or an unreachable peer,
// are counted drops — the group substrate's retransmission recovers once
// the peer is reachable.
func (t *Transport) Send(from, to node.ID, m node.Message) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	addr, ok := t.peers[to]
	if !ok {
		t.mu.Unlock()
		t.ins().drops.Inc()
		return
	}
	w := t.writers[addr]
	if w == nil {
		w = newPeerWriter(t, addr, t.queueCap)
		t.writers[addr] = w
		t.wg.Add(1)
		go w.run()
	}
	t.mu.Unlock()
	w.enqueue(from, to, m)
}

// dropConnections closes every established connection — outbound writer
// conns and inbound accepted conns — without touching queues, cooldowns,
// or the listener. Test hook simulating a mid-stream network failure; the
// writers re-dial on their next flush.
func (t *Transport) dropConnections() {
	t.mu.Lock()
	writers := make([]*peerWriter, 0, len(t.writers))
	for _, w := range t.writers {
		writers = append(writers, w)
	}
	in := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		in = append(in, c)
	}
	t.mu.Unlock()
	for _, w := range writers {
		w.setConn(nil)
	}
	for _, c := range in {
		c.Close()
	}
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.ins().accepts.Inc()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readSlab is the size of the decoder-owned inbound buffer. Reads go
// straight from the socket into the slab and decoded messages alias it, so
// a slab is write-once: when it fills, a fresh one is allocated and the
// old one is garbage once its messages die. 256KB amortizes that
// allocation over thousands of typical frames.
const readSlab = 256 << 10

// readMinFree is the minimum free tail space worth issuing a read into;
// below it the loop moves to a fresh slab rather than degrade into tiny
// reads.
const readMinFree = 16 << 10

// readLoop parses length-prefixed frames off one inbound connection. Any
// framing or decode error (unknown version or tag, truncation, oversize)
// drops the connection — the sender re-dials, the stream resynchronizes at
// a frame boundary, and the group layer retransmits — so a desynchronized
// stream can never be misdecoded into wrong messages.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	t.readFrames(conn)
}

// readFrames is the zero-copy inbound hot path: the socket is read directly
// into a decoder-owned slab, every complete frame in the readable window is
// decoded with DecodeShared (byte fields alias the slab, hot types box from
// the decoder's arena), and the whole window's messages are injected as one
// batched enqueue per destination node. Decoded messages own their slab
// regions, so the slab is never rewritten behind them; the parse cursor
// only moves forward and cramped tails migrate to a fresh slab.
func (t *Transport) readFrames(conn net.Conn) {
	var dec FrameDecoder // per-connection string intern cache + arena
	bat := live.NewBatcher(t.rt)
	slab := make([]byte, readSlab)
	r, w := 0, 0 // parse and fill cursors into slab
	for {
		for w-r >= 4 {
			n := int(binary.BigEndian.Uint32(slab[r : r+4]))
			if n == 0 || n > maxFrameBytes {
				bat.Flush()
				return
			}
			if w-r-4 < n {
				break // frame body not fully arrived
			}
			body := slab[r+4 : r+4+n : r+4+n]
			r += 4 + n
			from, to, m, err := dec.DecodeShared(body)
			if err != nil {
				bat.Flush()
				return
			}
			t.ins().messagesRecv.Inc()
			bat.Add(from, to, m)
		}
		bat.Flush()

		// Need more bytes. need = the full span of the pending frame when
		// its length is already readable, else just the length prefix.
		need := 4
		if w-r >= 4 {
			if n := int(binary.BigEndian.Uint32(slab[r : r+4])); n > 0 && n <= maxFrameBytes {
				need = 4 + n
			}
		}
		if len(slab)-r < need || len(slab)-w < readMinFree {
			// The pending frame cannot fit in (or the free tail is too
			// cramped for useful reads from) the current slab: carry the
			// partial tail to a fresh one. Earlier regions stay untouched
			// for the messages that alias them.
			ns := make([]byte, max(readSlab, need))
			copy(ns, slab[r:w])
			w -= r
			r = 0
			slab = ns
		}
		n, err := conn.Read(slab[w:])
		if n > 0 {
			t.ins().bytesRecv.Add(uint64(n))
			w += n
		}
		if err != nil {
			return
		}
	}
}
