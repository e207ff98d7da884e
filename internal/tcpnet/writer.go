// Per-peer writer goroutines. Send enqueues onto a bounded ring and
// returns; the peer's writer goroutine owns the connection, performs every
// dial (with retry, backoff, and cooldown) off the caller path, and
// coalesces whatever is queued at each wakeup into a single buffered write
// — amortizing encode buffers and syscalls under load. Ring overflow is a
// counted drop recovered by the group substrate's retransmission, the same
// contract the old blocking transport gave unreachable peers.
//
// Group acks are held back rather than queued: a held ack leaves in the
// write of the next other frame to the same peer, or ackLinger after the
// first held ack if no such frame comes, and a newer ack on the same link
// replaces the one still held. The group layer acks every data frame, so
// this removes most ack-only writes, and the superseded acks never leave.
package tcpnet

import (
	"net"
	"sync"
	"time"

	"aqua/internal/group"
	"aqua/internal/node"
)

// DefaultSendQueue is the per-peer send ring capacity (frames) unless
// overridden with WithSendQueue.
const DefaultSendQueue = 1024

// ackLinger bounds how long a held group ack waits for a frame to ride
// with. It is far below group.Config's retransmit interval, so holding an
// ack never provokes a retransmission.
const ackLinger = time.Millisecond

// frameRec is one queued frame awaiting encode+flush.
type frameRec struct {
	from, to node.ID
	msg      node.Message
}

type peerWriter struct {
	t    *Transport
	addr string

	mu       sync.Mutex
	ring     []frameRec
	head     int        // index of the oldest queued frame
	count    int        // queued frames
	acks     []frameRec // held group acks, at most one per link
	ackSince time.Time  // when the oldest held ack was queued
	closed   bool
	wake     chan struct{} // capacity 1: wakeup signal

	// connMu guards the conn pointer only; the writer goroutine performs
	// I/O outside the lock (net.Conn.Close concurrent with Write is safe
	// and is how Close unblocks a writer mid-flush).
	connMu sync.Mutex
	conn   net.Conn

	stop chan struct{} // closed by shutdown; interrupts dial backoff

	// Writer-goroutine-private state, reused across flushes so the
	// steady-state encode path allocates nothing per frame.
	batch         []frameRec
	buf           []byte
	splices       []vecSplice
	nbScratch     [][]byte
	cooldownUntil time.Time
	linger        *time.Timer // fires when the held acks are due
	lingerArmed   bool        // linger is running and its value not yet received
}

// vecSplice marks a point in the flush buffer where a cached StateUpdate
// body belongs. Offsets (not sub-slices) because buf may reallocate while
// later frames append to it; the net.Buffers view is materialized only
// after the whole batch is encoded.
type vecSplice struct {
	off  int    // buf offset the body is spliced after
	body []byte // cached, immutable encoded payload
}

func newPeerWriter(t *Transport, addr string, queueCap int) *peerWriter {
	return &peerWriter{
		t:    t,
		addr: addr,
		ring: make([]frameRec, queueCap),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
}

// enqueue queues one frame for the writer goroutine. It never blocks, never
// dials, never sleeps and never allocates — the Send latency contract. A
// full ring is a counted drop.
func (w *peerWriter) enqueue(from, to node.ID, m node.Message) {
	if a, ok := m.(group.AckMsg); ok {
		w.holdAck(from, to, a, m)
		return
	}
	w.mu.Lock()
	if w.closed || w.count == len(w.ring) {
		w.mu.Unlock()
		w.t.ins().drops.Inc()
		return
	}
	w.ring[(w.head+w.count)%len(w.ring)] = frameRec{from: from, to: to, msg: m}
	w.count++
	w.mu.Unlock()
	w.t.ins().queueDepth.Add(1)
	w.signal()
}

// signal wakes the writer goroutine; a wakeup already pending covers it.
func (w *peerWriter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// holdAck holds a group ack for the peer's next write instead of queueing
// it. A link is (from, to, SrcEpoch, DstEpoch, Gen); acks are cumulative
// and Expected only grows within one link, so an ack replaces the one
// held for its link, keeping the larger Expected, and the superseded one
// is counted as merged. The sender's boxed message is kept, so the flush
// boxes nothing. The held slice grows to the most links one batch has
// held and is reused after, so steady state allocates nothing. Only the
// first held ack wakes the writer, which arms the linger timer. A closed
// writer counts the ack as a drop.
func (w *peerWriter) holdAck(from, to node.ID, a group.AckMsg, m node.Message) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.t.ins().drops.Inc()
		return
	}
	for i := range w.acks {
		h := &w.acks[i]
		held := h.msg.(group.AckMsg)
		if h.from == from && h.to == to && held.SrcEpoch == a.SrcEpoch &&
			held.DstEpoch == a.DstEpoch && held.Gen == a.Gen {
			if a.Expected > held.Expected {
				h.msg = m
			}
			w.mu.Unlock()
			w.t.ins().acksMerged.Inc()
			return
		}
	}
	first := len(w.acks) == 0
	if first {
		w.ackSince = time.Now()
	}
	w.acks = append(w.acks, frameRec{from: from, to: to, msg: m})
	w.mu.Unlock()
	w.t.ins().queueDepth.Add(1)
	if first {
		w.signal()
	}
}

// run is the writer goroutine: sleep until a frame is queued or the held
// acks are due, take everything, flush the whole batch in one write.
func (w *peerWriter) run() {
	defer w.t.wg.Done()
	defer w.setConn(nil)
	for {
		w.mu.Lock()
		for !w.closed && w.count == 0 {
			var due time.Duration
			if len(w.acks) > 0 {
				if due = ackLinger - time.Since(w.ackSince); due <= 0 {
					break
				}
			}
			w.mu.Unlock()
			w.sleep(due)
			w.mu.Lock()
		}
		if w.closed {
			w.mu.Unlock()
			if w.linger != nil {
				w.linger.Stop()
			}
			return
		}
		w.takeBatch()
		w.mu.Unlock()
		w.t.ins().queueDepth.Add(-int64(len(w.batch)))
		w.flush()
	}
}

// sleep waits for a wakeup, or for the linger timer when acks are held
// (due > 0). The timer is re-armed only after its value was received, so
// it is never reset while running; a fire left over from acks that rode
// an earlier write comes no later than the current acks' deadline, and
// run's loop then re-arms it for the remainder.
func (w *peerWriter) sleep(due time.Duration) {
	if due > 0 && !w.lingerArmed {
		if w.linger == nil {
			w.linger = time.NewTimer(due)
		} else {
			w.linger.Reset(due)
		}
		w.lingerArmed = true
	}
	var fire <-chan time.Time
	if w.lingerArmed {
		fire = w.linger.C
	}
	select {
	case <-w.wake:
	case <-fire:
		w.lingerArmed = false
	}
}

// takeBatch moves the held acks, then every queued frame, into w.batch.
// Called with mu held.
func (w *peerWriter) takeBatch() {
	w.batch = append(w.batch[:0], w.acks...)
	clear(w.acks) // drop the message references
	w.acks = w.acks[:0]
	for w.count > 0 {
		w.batch = append(w.batch, w.ring[w.head])
		w.ring[w.head] = frameRec{} // drop the message reference
		w.head = (w.head + 1) % len(w.ring)
		w.count--
	}
}

// flush encodes the drained batch into the reused buffer and writes it in
// one syscall. Frames whose tail is a cached StateUpdate body are not
// copied into the buffer: flush records a splice point and hands the kernel
// a vectored net.Buffers write ([header|...|header, cached-body, ...]), so
// a fan-out of large snapshots moves each body zero extra times. Connection
// setup (and its retry/backoff/cooldown) happens here, on the writer
// goroutine, never on a Send caller.
func (w *peerWriter) flush() {
	if w.getConn() == nil && !w.dial() {
		w.t.ins().drops.Add(uint64(len(w.batch)))
		return
	}
	w.buf = w.buf[:0]
	w.splices = w.splices[:0]
	frames := 0
	for i := range w.batch {
		f := &w.batch[i]
		b, cached, err := w.t.appendFrameVec(w.buf, f.from, f.to, f.msg)
		if err != nil {
			w.t.ins().drops.Inc() // unregistered type: skip, keep the rest
			continue
		}
		w.buf = b
		if cached != nil {
			w.splices = append(w.splices, vecSplice{off: len(b), body: cached})
		}
		frames++
	}
	if frames == 0 {
		return
	}
	w.t.ins().flushBatch.Observe(float64(frames))
	conn := w.getConn()
	if conn == nil { // Close raced us
		w.t.ins().drops.Add(uint64(frames))
		return
	}
	total := len(w.buf)
	var err error
	if len(w.splices) == 0 {
		_, err = conn.Write(w.buf)
	} else {
		// Materialize the vectored view: buffer segments between splice
		// points interleaved with the cached bodies, then one writev.
		w.nbScratch = w.nbScratch[:0]
		prev := 0
		for _, sp := range w.splices {
			if sp.off > prev {
				w.nbScratch = append(w.nbScratch, w.buf[prev:sp.off])
			}
			w.nbScratch = append(w.nbScratch, sp.body)
			total += len(sp.body)
			prev = sp.off
		}
		if prev < len(w.buf) {
			w.nbScratch = append(w.nbScratch, w.buf[prev:])
		}
		nb := net.Buffers(w.nbScratch)
		_, err = nb.WriteTo(conn)
	}
	if err != nil {
		// Broken pipe: drop the batch and the connection; the next flush
		// re-dials and the group layer retransmits.
		w.t.ins().drops.Add(uint64(frames))
		w.setConn(nil)
		return
	}
	w.t.ins().messagesSent.Add(uint64(frames))
	w.t.ins().bytesSent.Add(uint64(total))
}

// dial establishes the connection with the bounded retry ladder; on
// exhaustion the address enters a cooldown during which queued frames drop
// immediately instead of re-paying the backoff. All of it runs on the
// writer goroutine.
func (w *peerWriter) dial() bool {
	if !w.cooldownUntil.IsZero() {
		if time.Now().Before(w.cooldownUntil) {
			return false
		}
		w.cooldownUntil = time.Time{}
	}
	backoff := dialBackoffBase
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-w.stop:
				return false
			}
			backoff *= 2
		}
		w.t.ins().dials.Inc()
		conn, err := net.Dial("tcp", w.addr)
		if err == nil {
			w.setConn(conn)
			if w.isClosed() { // lost the race with Close
				w.setConn(nil)
				return false
			}
			return true
		}
		w.t.ins().dialFailures.Inc()
	}
	w.cooldownUntil = time.Now().Add(dialCooldownSpan)
	return false
}

func (w *peerWriter) getConn() net.Conn {
	w.connMu.Lock()
	c := w.conn
	w.connMu.Unlock()
	return c
}

// setConn swaps the connection, closing the previous one. setConn(nil)
// closes and clears.
func (w *peerWriter) setConn(c net.Conn) {
	w.connMu.Lock()
	if w.conn != nil && w.conn != c {
		w.conn.Close()
	}
	w.conn = c
	w.connMu.Unlock()
}

func (w *peerWriter) isClosed() bool {
	w.mu.Lock()
	c := w.closed
	w.mu.Unlock()
	return c
}

// shutdown stops the writer goroutine: marks it closed, interrupts any dial
// backoff, wakes it, and closes the connection to unblock a Write in
// flight. Idempotent.
func (w *peerWriter) shutdown() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stop)
	w.signal()
	w.setConn(nil)
}
