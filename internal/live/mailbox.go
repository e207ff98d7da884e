package live

import (
	"sync"

	"aqua/internal/node"
)

// chunkSize is the number of envelopes per mailbox chunk. 256 keeps a chunk
// around 16KB — big enough that a saturated node amortizes the mailbox lock
// and the consumer wakeup over hundreds of messages, small enough that idle
// nodes pin almost nothing.
const chunkSize = 256

// mchunk is one fixed-size segment of a mailbox. Chunks form a singly
// linked list; the consumer detaches the whole list per drain and recycles
// emptied chunks through the mailbox free list, so a steady-state node
// allocates no mailbox memory at all.
type mchunk struct {
	envs [chunkSize]envelope
	r, w int // read/write cursors into envs
	next *mchunk
}

// mailbox is the low-contention batched-drain queue behind each live node.
// Producers append under one short lock; the consumer detaches the entire
// chunk chain in one critical section and is woken at most once per
// empty→non-empty transition (the sleeping flag), not once per message. It
// is unbounded so that two nodes flooding each other can never deadlock.
type mailbox struct {
	mu       sync.Mutex
	head     *mchunk
	tail     *mchunk
	free     *mchunk // recycled, zeroed chunks
	sleeping bool    // consumer parked on wake
	stopped  bool
	wake     chan struct{} // capacity 1; one token per sleep cycle
}

func newMailbox() *mailbox {
	return &mailbox{wake: make(chan struct{}, 1)}
}

// appendLocked adds one envelope; m.mu must be held.
func (m *mailbox) appendLocked(env envelope) {
	t := m.tail
	if t == nil || t.w == chunkSize {
		c := m.free
		if c != nil {
			m.free = c.next
			c.next = nil
		} else {
			c = new(mchunk)
		}
		if t == nil {
			m.head = c
		} else {
			t.next = c
		}
		m.tail = c
		t = c
	}
	t.envs[t.w] = env
	t.w++
}

// put enqueues one envelope. It reports false if the mailbox is stopped (the
// envelope was dropped). The wakeup send happens outside the lock: only the
// producer that observed sleeping==true sends, so at most one token is ever
// in flight and the send can never block.
func (m *mailbox) put(env envelope) bool {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return false
	}
	m.appendLocked(env)
	wake := m.sleeping
	m.sleeping = false
	m.mu.Unlock()
	if wake {
		m.wake <- struct{}{}
	}
	return true
}

// putBatch enqueues a batch under a single lock acquisition with a single
// wakeup decision. It reports false if the mailbox is stopped.
func (m *mailbox) putBatch(envs []envelope) bool {
	if len(envs) == 0 {
		return true
	}
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return false
	}
	for i := range envs {
		m.appendLocked(envs[i])
	}
	wake := m.sleeping
	m.sleeping = false
	m.mu.Unlock()
	if wake {
		m.wake <- struct{}{}
	}
	return true
}

// take detaches the whole pending chain, blocking until there is work or the
// mailbox stops. spare chunks (already zeroed by the consumer) are returned
// to the free list while the lock is held anyway. On stop it returns the
// undelivered chain with ok=false so the caller can release timer accounting.
func (m *mailbox) take(spare *mchunk) (chain *mchunk, ok bool) {
	m.mu.Lock()
	if spare != nil {
		m.spliceFreeLocked(spare)
	}
	for {
		if m.stopped {
			chain = m.head
			m.head, m.tail = nil, nil
			m.mu.Unlock()
			return chain, false
		}
		if m.head != nil {
			chain = m.head
			m.head, m.tail = nil, nil
			m.mu.Unlock()
			return chain, true
		}
		m.sleeping = true
		m.mu.Unlock()
		<-m.wake
		m.mu.Lock()
	}
}

func (m *mailbox) spliceFreeLocked(spare *mchunk) {
	tail := spare
	for tail.next != nil {
		tail = tail.next
	}
	tail.next = m.free
	m.free = spare
}

// stop marks the mailbox stopped and wakes the consumer if it is parked.
func (m *mailbox) stop() {
	m.mu.Lock()
	m.stopped = true
	wake := m.sleeping
	m.sleeping = false
	m.mu.Unlock()
	if wake {
		m.wake <- struct{}{}
	}
}

// Batcher groups messages by destination node so a transport read cycle
// that decoded many frames pays one mailbox lock and at most one consumer
// wakeup per destination instead of one per frame. It is not safe for
// concurrent use; each transport connection owns its own Batcher.
type Batcher struct {
	rt    *Runtime
	dests []destBatch
}

type destBatch struct {
	to   node.ID
	node *liveNode
	envs []envelope
}

// NewBatcher creates a Batcher that injects into rt.
func NewBatcher(rt *Runtime) *Batcher {
	return &Batcher{rt: rt}
}

// Add buffers one inbound message. Messages for unknown destinations are
// dropped, matching Inject.
func (b *Batcher) Add(from, to node.ID, m node.Message) {
	for i := range b.dests {
		if b.dests[i].to == to {
			b.dests[i].envs = append(b.dests[i].envs, envelope{from: from, msg: m})
			return
		}
	}
	d := destBatch{to: to, node: b.rt.lookup(to)}
	d.envs = append(d.envs, envelope{from: from, msg: m})
	b.dests = append(b.dests, d)
}

// Flush delivers every buffered batch. Destination slices are retained (and
// their message references cleared) for reuse by the next read cycle.
func (b *Batcher) Flush() {
	for i := range b.dests {
		d := &b.dests[i]
		if len(d.envs) > 0 {
			if d.node == nil {
				// The node may have been registered under a different
				// runtime snapshot when first seen; retry once so
				// long-lived Batchers don't blackhole a destination
				// forever on a pre-Start race.
				d.node = b.rt.lookup(d.to)
			}
			if d.node != nil {
				d.node.enqueueBatch(d.envs)
			}
			for j := range d.envs {
				d.envs[j] = envelope{}
			}
			d.envs = d.envs[:0]
		}
	}
}
