package apps

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"aqua/internal/app"
)

func TestKVStoreSetGet(t *testing.T) {
	k := NewKVStore()
	rep, err := k.ApplyUpdate("Set", []byte("a=1"))
	if err != nil || string(rep) != "v1" {
		t.Fatalf("Set = %q, %v", rep, err)
	}
	got, err := k.Read("Get", []byte("a"))
	if err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if v, _ := k.Read("Version", nil); string(v) != "v1" {
		t.Fatalf("Version = %q", v)
	}
}

func TestKVStoreDel(t *testing.T) {
	k := NewKVStore()
	k.ApplyUpdate("Set", []byte("a=1"))
	if _, err := k.ApplyUpdate("Del", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if got, _ := k.Read("Get", []byte("a")); len(got) != 0 {
		t.Fatalf("deleted key still returns %q", got)
	}
	if k.Version() != 2 {
		t.Fatalf("version = %d", k.Version())
	}
}

func TestKVStoreErrors(t *testing.T) {
	k := NewKVStore()
	if _, err := k.ApplyUpdate("Set", []byte("noequals")); err == nil {
		t.Fatal("malformed Set accepted")
	}
	if _, err := k.ApplyUpdate("Nope", nil); err == nil {
		t.Fatal("unknown update accepted")
	}
	if _, err := k.Read("Nope", nil); err == nil {
		t.Fatal("unknown read accepted")
	}
	if k.Version() != 0 {
		t.Fatal("failed update advanced version")
	}
}

func TestKVStoreSnapshotRoundTrip(t *testing.T) {
	k := NewKVStore()
	k.ApplyUpdate("Set", []byte("a=1"))
	k.ApplyUpdate("Set", []byte("b=2"))
	snap, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	k2 := NewKVStore()
	if err := k2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, _ := k2.Read("Get", []byte("b")); string(got) != "2" {
		t.Fatalf("restored Get = %q", got)
	}
	if k2.Version() != 2 {
		t.Fatalf("restored version = %d", k2.Version())
	}
}

func TestKVStoreRestoreEmptySnapshotOfEmptyStore(t *testing.T) {
	k := NewKVStore()
	snap, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	k2 := NewKVStore()
	if err := k2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Store must remain usable after restoring a nil map.
	if _, err := k2.ApplyUpdate("Set", []byte("x=y")); err != nil {
		t.Fatal(err)
	}
}

func TestKVStoreRestoreGarbage(t *testing.T) {
	if err := NewKVStore().Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestDocumentAppendFetch(t *testing.T) {
	d := NewDocument()
	d.ApplyUpdate("Append", []byte("hello"))
	d.ApplyUpdate("Append", []byte("world"))
	got, err := d.Read("Fetch", nil)
	if err != nil || string(got) != "hello\nworld\n" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	if line, _ := d.Read("Line", []byte("1")); string(line) != "world" {
		t.Fatalf("Line 1 = %q", line)
	}
}

func TestDocumentReplace(t *testing.T) {
	d := NewDocument()
	d.ApplyUpdate("Append", []byte("one"))
	if _, err := d.ApplyUpdate("Replace", []byte("0:uno")); err != nil {
		t.Fatal(err)
	}
	if line, _ := d.Read("Line", []byte("0")); string(line) != "uno" {
		t.Fatalf("Line 0 = %q", line)
	}
	if _, err := d.ApplyUpdate("Replace", []byte("9:x")); err == nil {
		t.Fatal("out-of-range Replace accepted")
	}
	if _, err := d.ApplyUpdate("Replace", []byte("nocolon")); err == nil {
		t.Fatal("malformed Replace accepted")
	}
}

func TestDocumentErrorsAndVersion(t *testing.T) {
	d := NewDocument()
	if _, err := d.Read("Line", []byte("0")); err == nil {
		t.Fatal("Line on empty doc accepted")
	}
	if _, err := d.ApplyUpdate("Nope", nil); err == nil {
		t.Fatal("unknown update accepted")
	}
	d.ApplyUpdate("Append", []byte("x"))
	if v, _ := d.Read("Version", nil); string(v) != "v1" {
		t.Fatalf("Version = %q", v)
	}
}

func TestDocumentSnapshotRoundTrip(t *testing.T) {
	d := NewDocument()
	d.ApplyUpdate("Append", []byte("a"))
	snap, _ := d.Snapshot()
	d2 := NewDocument()
	if err := d2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, _ := d2.Read("Fetch", nil); string(got) != "a\n" {
		t.Fatalf("restored Fetch = %q", got)
	}
	if err := d2.Restore([]byte("junk")); err == nil {
		t.Fatal("junk restore accepted")
	}
}

func TestTickerQuoteAndPrice(t *testing.T) {
	tk := NewTicker()
	if _, err := tk.ApplyUpdate("Quote", []byte("ACME=12345")); err != nil {
		t.Fatal(err)
	}
	if got, _ := tk.Read("Price", []byte("ACME")); string(got) != "12345" {
		t.Fatalf("Price = %q", got)
	}
	if _, err := tk.Read("Price", []byte("NONE")); err == nil {
		t.Fatal("unknown symbol accepted")
	}
}

func TestTickerTrade(t *testing.T) {
	tk := NewTicker()
	tk.ApplyUpdate("Quote", []byte("ACME=100"))
	rep, err := tk.ApplyUpdate("Trade", []byte("ACME:-30"))
	if err != nil || string(rep) != "70" {
		t.Fatalf("Trade = %q, %v", rep, err)
	}
	if tk.Version() != 2 {
		t.Fatalf("version = %d", tk.Version())
	}
}

func TestTickerBoardDeterministicOrder(t *testing.T) {
	tk := NewTicker()
	tk.ApplyUpdate("Quote", []byte("B=2"))
	tk.ApplyUpdate("Quote", []byte("A=1"))
	got, _ := tk.Read("Board", nil)
	if string(got) != "B=2;A=1" {
		t.Fatalf("Board = %q, want insertion order", got)
	}
}

func TestTickerErrors(t *testing.T) {
	tk := NewTicker()
	cases := []struct{ method, payload string }{
		{"Quote", "noequals"},
		{"Quote", "A=notanumber"},
		{"Trade", "nocolon"},
		{"Trade", "A:NaN"},
		{"Bogus", ""},
	}
	for _, c := range cases {
		if _, err := tk.ApplyUpdate(c.method, []byte(c.payload)); err == nil {
			t.Errorf("update %s(%q) accepted", c.method, c.payload)
		}
	}
	if _, err := tk.Read("Bogus", nil); err == nil {
		t.Fatal("unknown read accepted")
	}
}

func TestTickerSnapshotRoundTrip(t *testing.T) {
	tk := NewTicker()
	tk.ApplyUpdate("Quote", []byte("A=1"))
	tk.ApplyUpdate("Quote", []byte("B=2"))
	snap, _ := tk.Snapshot()
	tk2 := NewTicker()
	if err := tk2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	b1, _ := tk.Read("Board", nil)
	b2, _ := tk2.Read("Board", nil)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("board mismatch: %q vs %q", b1, b2)
	}
	if err := tk2.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("junk restore accepted")
	}
}

// Property: applying the same update sequence to two fresh KV stores yields
// identical snapshots — the determinism every primary relies on.
func TestKVStoreDeterminismProperty(t *testing.T) {
	prop := func(ops [][2]string) bool {
		a, b := NewKVStore(), NewKVStore()
		apply := func(k *KVStore) {
			for _, op := range ops {
				payload := op[0] + "=" + op[1]
				k.ApplyUpdate("Set", []byte(payload))
			}
		}
		apply(a)
		apply(b)
		sa, _ := a.Snapshot()
		sb, _ := b.Snapshot()
		ra, rb := NewKVStore(), NewKVStore()
		ra.Restore(sa)
		rb.Restore(sb)
		ba, _ := ra.Read("Version", nil)
		bb, _ := rb.Read("Version", nil)
		if !bytes.Equal(ba, bb) {
			return false
		}
		for _, op := range ops {
			va, _ := ra.Read("Get", []byte(op[0]))
			vb, _ := rb.Read("Get", []byte(op[0]))
			if !bytes.Equal(va, vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Interface compliance for all three applications.
var (
	_ app.Application = (*KVStore)(nil)
	_ app.Application = (*Document)(nil)
	_ app.Application = (*Ticker)(nil)
)

// Canonical snapshots: identical logical state must produce identical bytes
// (the anti-entropy digest depends on it), regardless of insertion order.
func TestKVStoreSnapshotCanonical(t *testing.T) {
	a, b := NewKVStore(), NewKVStore()
	a.ApplyUpdate("Set", []byte("x=1"))
	a.ApplyUpdate("Set", []byte("y=2"))
	b.ApplyUpdate("Set", []byte("y=wrong"))
	b.ApplyUpdate("Set", []byte("x=1"))
	// Converge b's logical state to a's (same version count, same data).
	b2 := NewKVStore()
	b2.ApplyUpdate("Set", []byte("y=2"))
	b2.ApplyUpdate("Set", []byte("x=1"))
	sa, _ := a.Snapshot()
	sb, _ := b2.Snapshot()
	if !bytes.Equal(sa, sb) {
		t.Fatal("identical KV state produced different snapshot bytes")
	}
	// And repeated snapshots of the same store are stable.
	for i := 0; i < 20; i++ {
		s2, _ := a.Snapshot()
		if !bytes.Equal(sa, s2) {
			t.Fatal("snapshot bytes unstable across calls")
		}
	}
}

func TestTickerSnapshotCanonical(t *testing.T) {
	a := NewTicker()
	a.ApplyUpdate("Quote", []byte("A=1"))
	a.ApplyUpdate("Quote", []byte("B=2"))
	sa, _ := a.Snapshot()
	for i := 0; i < 20; i++ {
		s2, _ := a.Snapshot()
		if !bytes.Equal(sa, s2) {
			t.Fatal("ticker snapshot bytes unstable")
		}
	}
	// Restore preserves insertion (board) order.
	b := NewTicker()
	if err := b.Restore(sa); err != nil {
		t.Fatal(err)
	}
	ba, _ := a.Read("Board", nil)
	bb, _ := b.Read("Board", nil)
	if !bytes.Equal(ba, bb) {
		t.Fatalf("board after restore: %q vs %q", bb, ba)
	}
}

func TestKVStoreRestoreLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	type kvBad struct {
		Keys    []string
		Values  []string
		Version uint64
	}
	gobEncode(t, &buf, kvBad{Keys: []string{"a", "b"}, Values: []string{"1"}})
	if err := NewKVStore().Restore(buf.Bytes()); err == nil {
		t.Fatal("mismatched snapshot accepted")
	}
}

func gobEncode(t *testing.T, buf *bytes.Buffer, v interface{}) {
	t.Helper()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		t.Fatal(err)
	}
}

// A snapshot reaches Restore from peers (StateUpdate) and from the WAL
// cell, so a count it claims must be checked against its bytes before it
// sizes an allocation: 5 bytes claiming 2^20 keys used to allocate 80 MB
// for the KV store's map.
func TestRestoreRejectsHostileCount(t *testing.T) {
	for _, c := range []struct {
		name   string
		format byte
		app    app.Application
	}{
		{"kvstore", kvSnapFormat, NewKVStore()},
		{"document", docSnapFormat, NewDocument()},
		{"ticker", tickerSnapFormat, NewTicker()},
	} {
		snap := binary.AppendUvarint([]byte{c.format, 7}, 1<<20)
		if len(snap) != 5 {
			t.Fatalf("hostile snapshot is %d bytes", len(snap))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.app.Restore(snap)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: snapshot claiming 2^20 entries in 0 bytes restored", c.name)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
			t.Errorf("%s: rejecting the snapshot allocated %d bytes", c.name, delta)
		}
	}
}

// Document and ticker snapshots used to be gob streams; a cell or a peer
// carrying one is refused by its format byte instead of misread.
func TestRestoreRejectsGobSnapshots(t *testing.T) {
	var doc, tick bytes.Buffer
	gobEncode(t, &doc, struct {
		Lines   []string
		Version uint64
	}{[]string{"a", "b"}, 2})
	gobEncode(t, &tick, struct {
		Symbols []string
		Prices  []int64
		Version uint64
	}{[]string{"A"}, []int64{100}, 1})
	if err := NewDocument().Restore(doc.Bytes()); err == nil || !strings.Contains(err.Error(), "bad snapshot format") {
		t.Errorf("document restored a gob snapshot: %v", err)
	}
	if err := NewTicker().Restore(tick.Bytes()); err == nil || !strings.Contains(err.Error(), "bad snapshot format") {
		t.Errorf("ticker restored a gob snapshot: %v", err)
	}
}
