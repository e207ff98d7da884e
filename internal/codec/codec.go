// Package codec owns the field encoding every binary format in this module
// shares: the live wire (internal/tcpnet), the write-ahead log
// (internal/wal) and the application snapshots (internal/apps). Each
// format keeps its own framing, version or format byte, and composite
// shapes (request IDs, lists); the fields inside are written here and read
// back through one Reader.
//
// Field encodings:
//
//	uint64          uvarint
//	int64           zigzag varint
//	bool            one byte, 0 or 1; any other byte is malformed
//	string, []byte  uvarint length + bytes (length 0 reads back as "" / nil)
//	count           uvarint, checked against the unread bytes before it
//	                sizes an allocation (Reader.Count)
package codec

import (
	"encoding/binary"
	"errors"
)

var (
	// ErrTruncated reports a field that runs past the end of the body, or
	// a count the remaining bytes cannot hold.
	ErrTruncated = errors.New("codec: truncated field")
	// ErrMalformed reports a field whose bytes no encoder writes, such as
	// a bool byte other than 0 or 1.
	ErrMalformed = errors.New("codec: malformed field")
	// ErrTrailing reports bytes left over after the last field.
	ErrTrailing = errors.New("codec: trailing bytes")
)

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p as a uvarint length followed by its bytes.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends v as one byte, 1 for true and 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader is a fail-latching cursor over an encoded body: the first error
// sticks, later reads return zero values, and the caller checks Err (or
// Done) once at the end instead of after every field.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. Fields that Take returns alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail latches err unless an earlier error is already latched, and drops
// the unread bytes.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.b = nil
	}
}

// Err returns the first error latched, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first error latched, or ErrTrailing when bytes remain
// unread: a body decodes exactly or not at all.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		return ErrTrailing
	}
	return r.err
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zigzag signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Take returns the next n bytes, aliasing the body.
func (r *Reader) Take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail(ErrTruncated)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Str reads a length-prefixed string, copied out of the body.
func (r *Reader) Str() string { return string(r.Take(r.Uvarint())) }

// Bytes reads a length-prefixed byte field, copied out of the body (nil for
// length 0).
func (r *Reader) Bytes() []byte {
	p := r.Take(r.Uvarint())
	if len(p) == 0 {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(ErrMalformed)
		return false
	}
}

// Count reads a uvarint element count for a list whose every element
// encodes in at least size bytes (size >= 1). A count the unread bytes
// cannot hold latches ErrTruncated and reads as 0, so a hostile count never
// sizes an allocation.
func (r *Reader) Count(size int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/size) {
		r.Fail(ErrTruncated)
		return 0
	}
	return int(n)
}
