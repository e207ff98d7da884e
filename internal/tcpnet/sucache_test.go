package tcpnet

import (
	"bytes"
	"testing"

	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
)

// TestAppendFrameVecByteIdentical: the fan-out encode cache must be
// invisible on the wire — for every frame, the header appendFrameVec writes
// followed by the cached body it returns is byte-for-byte what AppendFrame
// would have produced, across cache hits, misses, and non-cacheable frames.
func TestAppendFrameVecByteIdentical(t *testing.T) {
	tr := &Transport{}
	rid := consistency.RequestID{Client: "c00", Seq: 7}
	su := consistency.StateUpdate{CSN: 41, Snapshot: []byte("snap-a"),
		RecentIDs: []consistency.RequestID{rid}}
	su2 := consistency.StateUpdate{CSN: 42, Snapshot: []byte("snap-b"), RecentIDs: nil}
	cases := []struct {
		m       node.Message
		spliced bool // body returned separately for the vectored write
	}{
		{group.DataMsg{SrcEpoch: 1, Gen: 2, Seq: 3, Payload: su}, true},
		{group.DataMsg{SrcEpoch: 1, Gen: 2, Seq: 4, Payload: su}, true},  // cache hit
		{group.DataMsg{SrcEpoch: 2, Gen: 1, Seq: 1, Payload: su2}, true}, // cache replace
		{&group.DataMsg{SrcEpoch: 2, Gen: 1, Seq: 2, Payload: &su2}, true},
		{group.DataMsg{SrcEpoch: 1, Gen: 1, Seq: 5,
			Payload: consistency.Request{ID: rid, Method: "Set", Payload: []byte("x")}}, false},
		{consistency.StateUpdate{CSN: 9, Snapshot: []byte("bare")}, false}, // not wrapped
		{group.AckMsg{SrcEpoch: 1, DstEpoch: 1, Gen: 1, Expected: 2}, false},
	}
	for i, c := range cases {
		want, err := AppendFrame(nil, "p00", "s01", c.m)
		if err != nil {
			t.Fatalf("case %d: AppendFrame: %v", i, err)
		}
		head, body, err := tr.appendFrameVec(nil, "p00", "s01", c.m)
		if err != nil {
			t.Fatalf("case %d: appendFrameVec: %v", i, err)
		}
		if (body != nil) != c.spliced {
			t.Fatalf("case %d: spliced body = %v, want spliced=%v", i, body != nil, c.spliced)
		}
		if got := append(head, body...); !bytes.Equal(got, want) {
			t.Fatalf("case %d: head+body differs from AppendFrame\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestStateUpdateCacheSingleEncode: fanning one StateUpdate value out to
// many peers encodes the payload body once; a new tick's value (different
// CSN / backing arrays) re-encodes.
func TestStateUpdateCacheSingleEncode(t *testing.T) {
	var c stateUpdateCache
	su := consistency.StateUpdate{CSN: 7, Snapshot: []byte("abc"),
		RecentIDs: []consistency.RequestID{{Client: "c01", Seq: 1}}}
	first := c.encoded(su)
	if first == nil {
		t.Fatal("encoded returned nil")
	}
	for i := 0; i < 4; i++ {
		if again := c.encoded(su); &again[0] != &first[0] {
			t.Fatalf("fan-out %d re-encoded instead of reusing cached body", i)
		}
	}
	// Equal contents but fresh backing arrays: identity keying must miss.
	clone := consistency.StateUpdate{CSN: 7,
		Snapshot:  append([]byte(nil), su.Snapshot...),
		RecentIDs: append([]consistency.RequestID(nil), su.RecentIDs...)}
	if b := c.encoded(clone); &b[0] == &first[0] {
		t.Fatal("cache hit on different backing arrays")
	}
	if b := c.encoded(clone); !bytes.Equal(b, first) {
		t.Fatal("clone encoding differs from original encoding")
	}
}
