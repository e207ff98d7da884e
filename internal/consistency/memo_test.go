package consistency

import (
	"reflect"
	"testing"
)

func memoIDs(seqs ...uint64) []RequestID {
	out := make([]RequestID, len(seqs))
	for i, s := range seqs {
		out[i] = rid("m", s)
	}
	return out
}

func TestMemoEvictsFirstPutFirst(t *testing.T) {
	m := NewMemo[int](3)
	for s := uint64(1); s <= 5; s++ {
		if !m.Put(rid("m", s), int(s)) {
			t.Fatalf("fresh put %d refused", s)
		}
	}
	for s := uint64(1); s <= 5; s++ {
		v, ok := m.Get(rid("m", s))
		if want := s >= 3; ok != want || (ok && v != int(s)) {
			t.Fatalf("Get(m%d) = %d, %v; want present=%v", s, v, ok, want)
		}
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
}

func TestMemoPutOfPresentIDKeepsValueAndSlot(t *testing.T) {
	m := NewMemo[int](2)
	m.Put(rid("m", 1), 10)
	m.Put(rid("m", 2), 20)
	if m.Put(rid("m", 1), 99) {
		t.Fatal("put of a present ID reported an insert")
	}
	if v, _ := m.Get(rid("m", 1)); v != 10 {
		t.Fatalf("present ID overwritten: %d", v)
	}
	// m1's slot was not refreshed, so it is still the oldest.
	m.Put(rid("m", 3), 30)
	if _, ok := m.Get(rid("m", 1)); ok {
		t.Fatal("re-put refreshed m1's slot")
	}
	if _, ok := m.Get(rid("m", 2)); !ok {
		t.Fatal("m2 evicted instead of m1")
	}
}

func TestMemoDeleteKeepsSlot(t *testing.T) {
	m := NewMemo[int](2)
	m.Put(rid("m", 1), 1)
	m.Put(rid("m", 2), 2)
	m.Delete(rid("m", 1))
	if _, ok := m.Get(rid("m", 1)); ok || m.Len() != 1 {
		t.Fatalf("after Delete: present=%v Len=%d", ok, m.Len())
	}
	// m1's slot still counts toward n: one more put evicts it, the next m2.
	m.Put(rid("m", 1), 11)
	if _, ok := m.Get(rid("m", 2)); !ok {
		t.Fatal("re-put of a deleted ID evicted a live entry")
	}
	if v, ok := m.Get(rid("m", 1)); !ok || v != 11 {
		t.Fatalf("evicting m1's stale slot dropped its new entry: %d, %v", v, ok)
	}
	m.Put(rid("m", 3), 3)
	if _, ok := m.Get(rid("m", 2)); ok {
		t.Fatal("m2 not evicted after m1's stale slot")
	}
	if got := m.Recent(nil, 4); !reflect.DeepEqual(got, memoIDs(1, 3)) {
		t.Fatalf("Recent = %v", got)
	}
}

func TestMemoRecentNewestOldestFirst(t *testing.T) {
	m := NewMemo[struct{}](4)
	if got := m.Recent(nil, 3); len(got) != 0 {
		t.Fatalf("empty memo Recent = %v", got)
	}
	for s := uint64(1); s <= 6; s++ {
		m.Put(rid("m", s), struct{}{})
	}
	if got := m.Recent(nil, 3); !reflect.DeepEqual(got, memoIDs(4, 5, 6)) {
		t.Fatalf("Recent(3) = %v", got)
	}
	if got := m.Recent(nil, 10); !reflect.DeepEqual(got, memoIDs(3, 4, 5, 6)) {
		t.Fatalf("Recent(10) = %v", got)
	}
	m.Delete(rid("m", 5))
	dst := memoIDs(99)
	if got := m.Recent(dst, 2); !reflect.DeepEqual(got, memoIDs(99, 4, 6)) {
		t.Fatalf("Recent after Delete = %v", got)
	}
}

func TestMemoEvictionHandlerMayPut(t *testing.T) {
	m := NewMemo[int](2)
	var evicted []RequestID
	m.OnEvict = func(id RequestID, v int) {
		evicted = append(evicted, id)
		if v != int(id.Seq) {
			t.Fatalf("evicted %v carried value %d", id, v)
		}
		if id.Seq == 1 {
			// The memo is consistent again: m3 is in, m1 is out.
			if _, ok := m.Get(rid("m", 3)); !ok {
				t.Fatal("handler ran before the triggering put landed")
			}
			m.Put(rid("m", 10), 10)
		}
	}
	for s := uint64(1); s <= 3; s++ {
		m.Put(rid("m", s), int(s))
	}
	if !reflect.DeepEqual(evicted, memoIDs(1, 2)) {
		t.Fatalf("evicted %v", evicted)
	}
	if got := m.Recent(nil, 2); !reflect.DeepEqual(got, memoIDs(3, 10)) || m.Len() != 2 {
		t.Fatalf("Recent = %v, Len = %d", got, m.Len())
	}
}

func TestMemoCapacityOne(t *testing.T) {
	m := NewMemo[int](1)
	m.Put(rid("m", 1), 1)
	if m.Put(rid("m", 1), 2) {
		t.Fatal("duplicate put inserted")
	}
	m.Put(rid("m", 2), 2)
	if _, ok := m.Get(rid("m", 1)); ok || m.Len() != 1 {
		t.Fatal("capacity-1 memo kept two entries")
	}
	m.Delete(rid("m", 2))
	m.Put(rid("m", 2), 3)
	if v, ok := m.Get(rid("m", 2)); !ok || v != 3 {
		t.Fatalf("re-put after Delete lost: %d, %v", v, ok)
	}
	if got := m.Recent(nil, 5); !reflect.DeepEqual(got, memoIDs(2)) {
		t.Fatalf("Recent = %v", got)
	}
}

// TestMemoPutAtCapacityZeroAlloc pins the steady state of every protocol
// memo: putting a fresh ID into a full memo reuses the evicted slot.
func TestMemoPutAtCapacityZeroAlloc(t *testing.T) {
	const n = 64
	m := NewMemo[uint64](n)
	ids := make([]RequestID, 4*n)
	for i := range ids {
		ids[i] = rid("m", uint64(i))
	}
	for i := range ids {
		m.Put(ids[i], uint64(i))
	}
	next := 0
	allocs := testing.AllocsPerRun(1000, func() {
		m.Put(ids[next%len(ids)], 1)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Put at capacity allocates %.1f times per call", allocs)
	}
}
