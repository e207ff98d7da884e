package consistency

// Memo remembers a value for each of the last n request IDs put into it:
// the bounded per-request memory every duplicate check of the protocol
// rests on (the sequencer's assignments, a replica's committed updates and
// recent bodies, read GSNs waiting for their bodies, served reads, a
// client's in-flight invocations).
//
// Put inserts only an absent ID and never refreshes a present one, so
// eviction is first-put-first-out. Each put takes one of n slots; a slot
// outlives a Delete of its ID and still counts toward n until it is
// evicted, and evicting it never drops a later put of the same ID. The
// slot ring grows by append up to n and then wraps, so memory follows use.
// A Memo is not safe for concurrent use.
type Memo[V any] struct {
	n     int
	slots []RequestID // put number p lives in slots[p%n]
	puts  uint64      // number of puts so far
	vals  map[RequestID]memoEntry[V]

	// OnEvict, when set, receives each live entry a Put evicts. It runs
	// once the memo is consistent again, so it may Put itself.
	OnEvict func(RequestID, V)
}

type memoEntry[V any] struct {
	val V
	put uint64 // the put that inserted it, to tell its slot from stale ones
}

// NewMemo returns an empty memo remembering the last n puts (n >= 1).
func NewMemo[V any](n int) *Memo[V] {
	return &Memo[V]{n: n, vals: make(map[RequestID]memoEntry[V])}
}

// Get returns the value remembered for id.
func (m *Memo[V]) Get(id RequestID) (V, bool) {
	e, ok := m.vals[id]
	return e.val, ok
}

// Put remembers v for id unless id is present, and reports whether it did.
// When all n slots are taken, the oldest is evicted first.
func (m *Memo[V]) Put(id RequestID, v V) bool {
	if _, ok := m.vals[id]; ok {
		return false
	}
	var victim RequestID
	var old memoEntry[V]
	evicted := false
	if len(m.slots) < m.n {
		m.slots = append(m.slots, id)
	} else {
		i := m.puts % uint64(m.n)
		victim = m.slots[i]
		if e, ok := m.vals[victim]; ok && e.put == m.puts-uint64(m.n) {
			old, evicted = e, true
			delete(m.vals, victim)
		}
		m.slots[i] = id
	}
	m.vals[id] = memoEntry[V]{val: v, put: m.puts}
	m.puts++
	if evicted && m.OnEvict != nil {
		m.OnEvict(victim, old.val)
	}
	return true
}

// Delete forgets id. Its slot stays taken until evicted.
func (m *Memo[V]) Delete(id RequestID) { delete(m.vals, id) }

// Len returns the number of IDs remembered.
func (m *Memo[V]) Len() int { return len(m.vals) }

// Recent appends to dst the newest k IDs still remembered, oldest first,
// and returns the extended slice. Deleted IDs are skipped.
func (m *Memo[V]) Recent(dst []RequestID, k int) []RequestID {
	start := len(dst)
	for back := uint64(1); back <= uint64(len(m.slots)) && len(dst)-start < k; back++ {
		p := m.puts - back
		id := m.slots[p%uint64(m.n)]
		if e, ok := m.vals[id]; ok && e.put == p {
			dst = append(dst, id)
		}
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
