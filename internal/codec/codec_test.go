package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestAppendRoundTrip(t *testing.T) {
	var b []byte
	b = AppendString(b, "node-7")
	b = AppendString(b, "")
	b = AppendBytes(b, []byte{0, 1, 2, 255})
	b = AppendBytes(b, nil)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = append(b, 0x7f)

	r := NewReader(b)
	if got := r.Str(); got != "node-7" {
		t.Fatalf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Fatalf("empty Str = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2, 255}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("empty Bytes = %v, want nil", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool did not round-trip true, false")
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.Byte(); got != 0x7f {
		t.Fatalf("Byte = %#x", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// Bytes copies out of the body; Take aliases it.
func TestBytesCopiesTakeAliases(t *testing.T) {
	body := AppendBytes(AppendBytes(nil, []byte("ab")), []byte("cd"))
	r := NewReader(body)
	copied, aliased := r.Bytes(), r.Take(r.Uvarint())
	body[1], body[4] = 'X', 'Y'
	if string(copied) != "ab" || string(aliased) != "Yd" {
		t.Fatalf("copied %q, aliased %q", copied, aliased)
	}
}

func TestTruncatedLatches(t *testing.T) {
	full := AppendString(binary.AppendUvarint(nil, 300), "hello")
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uvarint()
		s := r.Str()
		if !errors.Is(r.Err(), ErrTruncated) || !errors.Is(r.Done(), ErrTruncated) {
			t.Fatalf("cut %d: Err = %v, Done = %v", cut, r.Err(), r.Done())
		}
		// The first error sticks: later reads return zero values.
		if s != "" || r.Byte() != 0 || r.Uvarint() != 0 || r.Bool() || !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("cut %d: reads after the error were not zero", cut)
		}
	}
}

func TestBoolRejectsOtherBytes(t *testing.T) {
	for _, c := range []byte{2, 0x80, 0xff} {
		r := NewReader([]byte{c, 1})
		if r.Bool() || !errors.Is(r.Err(), ErrMalformed) {
			t.Fatalf("bool byte %d: Err = %v", c, r.Err())
		}
		if r.Bool() || !errors.Is(r.Err(), ErrMalformed) {
			t.Fatalf("bool byte %d: later read changed the latched error to %v", c, r.Err())
		}
	}
}

func TestDoneRejectsTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Byte()
	if r.Err() != nil || !errors.Is(r.Done(), ErrTrailing) {
		t.Fatalf("Err = %v, Done = %v", r.Err(), r.Done())
	}
}

func TestCountBoundedByUnreadBytes(t *testing.T) {
	for _, c := range []struct {
		count, size, unread int
		ok                  bool
	}{
		{3, 1, 3, true},
		{4, 1, 3, false},
		{2, 2, 5, true},
		{3, 2, 5, false},
		{0, 4, 0, true},
		{1 << 20, 2, 8, false},
	} {
		b := binary.AppendUvarint(nil, uint64(c.count))
		r := NewReader(append(b, make([]byte, c.unread)...))
		got := r.Count(c.size)
		if c.ok && (got != c.count || r.Err() != nil) {
			t.Errorf("%+v: Count = %d, Err = %v", c, got, r.Err())
		}
		if !c.ok && (got != 0 || !errors.Is(r.Err(), ErrTruncated)) {
			t.Errorf("%+v: Count = %d, Err = %v, want 0, ErrTruncated", c, got, r.Err())
		}
	}
}
