// Per-peer writer goroutines. Send enqueues onto a bounded ring and
// returns; the peer's writer goroutine owns the connection, performs every
// dial (with retry, backoff, and cooldown) off the caller path, and
// coalesces whatever is queued at each wakeup into a single buffered write
// — amortizing encode buffers and syscalls under load. Ring overflow is a
// counted drop recovered by the group substrate's retransmission, the same
// contract the old blocking transport gave unreachable peers.
package tcpnet

import (
	"net"
	"sync"
	"time"

	"aqua/internal/node"
)

// DefaultSendQueue is the per-peer send ring capacity (frames) unless
// overridden with WithSendQueue.
const DefaultSendQueue = 1024

// frameRec is one queued frame awaiting encode+flush.
type frameRec struct {
	from, to node.ID
	msg      node.Message
}

type peerWriter struct {
	t    *Transport
	addr string

	mu     sync.Mutex
	ring   []frameRec
	head   int // index of the oldest queued frame
	count  int // queued frames
	closed bool
	wake   chan struct{} // capacity 1: wakeup signal

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
// dials, and never sleeps — the Send latency contract. A full ring is a
// counted drop.
func (w *peerWriter) enqueue(from, to node.ID, m node.Message) {
	w.mu.Lock()
	if w.closed || w.count == len(w.ring) {
		w.mu.Unlock()
		w.t.ins.drops.Inc()
		return
	}
	w.ring[(w.head+w.count)%len(w.ring)] = frameRec{from: from, to: to, msg: m}
	w.count++
	w.mu.Unlock()
	w.t.ins.queueDepth.Add(1)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// run is the writer goroutine: sleep until woken, drain the ring, flush the
// whole batch in one write.
func (w *peerWriter) run() {
	defer w.t.wg.Done()
	defer w.setConn(nil)
	for {
		w.mu.Lock()
		for w.count == 0 && !w.closed {
			w.mu.Unlock()
			<-w.wake
			w.mu.Lock()
		}
		if w.closed {
			w.mu.Unlock()
			return
		}
		w.batch = w.batch[:0]
		for w.count > 0 {
			w.batch = append(w.batch, w.ring[w.head])
			w.ring[w.head] = frameRec{} // drop the message reference
			w.head = (w.head + 1) % len(w.ring)
			w.count--
		}
		w.mu.Unlock()
		w.t.ins.queueDepth.Add(-int64(len(w.batch)))
		w.flush()
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
		w.t.ins.drops.Add(uint64(len(w.batch)))
		return
	}
	w.buf = w.buf[:0]
	w.splices = w.splices[:0]
	frames := 0
	for i := range w.batch {
		f := &w.batch[i]
		b, cached, err := w.t.appendFrameVec(w.buf, f.from, f.to, f.msg)
		if err != nil {
			w.t.ins.drops.Inc() // unregistered type: skip, keep the rest
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
	w.t.ins.flushBatch.Observe(float64(frames))
	conn := w.getConn()
	if conn == nil { // Close raced us
		w.t.ins.drops.Add(uint64(frames))
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
		w.t.ins.drops.Add(uint64(frames))
		w.setConn(nil)
		return
	}
	w.t.ins.messagesSent.Add(uint64(frames))
	w.t.ins.bytesSent.Add(uint64(total))
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
		w.t.ins.dials.Inc()
		conn, err := net.Dial("tcp", w.addr)
		if err == nil {
			w.setConn(conn)
			if w.isClosed() { // lost the race with Close
				w.setConn(nil)
				return false
			}
			return true
		}
		w.t.ins.dialFailures.Inc()
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
	select {
	case w.wake <- struct{}{}:
	default:
	}
	w.setConn(nil)
}
