// Package wal implements the replica's durable state: an append-only
// write-ahead log of committed updates plus a snapshot cell holding the
// last compaction point. A restarting replica replays snapshot + WAL
// suffix to its exact pre-crash commit frontier instead of re-fetching
// history from its peers (DESIGN.md §14).
//
// The binary format is length-prefixed framing and a version byte around
// internal/codec's field encoding (uvarint integers, length-prefixed
// strings and byte slices, 0/1 bools), with decode-exactly-or-error
// semantics. Every frame additionally carries a
// CRC32 of its body, because unlike a TCP stream a log survives torn
// writes and media corruption: a record either decodes byte-exactly with a
// matching checksum or replay stops at that record boundary. A torn final
// record is the expected crash artifact and is truncated on recovery;
// corruption earlier in the log also stops replay deterministically at the
// preceding boundary (the suffix is unrecoverable either way — the replica
// rejoins from the frontier it could prove).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"aqua/internal/codec"
	"aqua/internal/consistency"
	"aqua/internal/node"
)

// Version is the current record format version. Decoders reject anything
// else outright — a frame is never misdecoded into the wrong shape.
// Version 2 added the record kind byte (assignment records) and the
// snapshot's outstanding-assignment table.
const Version = 2

// Record kinds. A commit record carries a released update (GSN, body,
// dup marker); an assign record carries only a durable assignment-table
// entry (GSN, request ID) — the promise a primary acknowledged to the
// sequencer before the commit was released. Assignment durability is what
// lets an AssignAck survive the acker's crash (DESIGN.md §14): a frontier
// is acknowledged only after every assignment at or below it is on media.
const (
	KindCommit byte = 0
	KindAssign byte = 1
)

// maxRecordBytes bounds one record/snapshot body; larger length prefixes
// indicate a corrupt or hostile log.
const maxRecordBytes = 64 << 20

var (
	// ErrCorrupt reports a record that failed structural validation: bad
	// version, bad checksum, truncated or trailing bytes inside the frame.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrTorn reports an incomplete final frame — fewer bytes remain than
	// the record's own header promises, the signature of a crash mid-append.
	ErrTorn = errors.New("wal: torn record")
)

// Record is one log entry. A KindCommit record is one committed update as
// the replica's commit stream released it: the paired (GSN, body) plus the
// duplicate marker. A KindAssign record is a durable assignment-table
// entry: only GSN and ID are meaningful. Each kind's GSNs are strictly
// ascending in a log (commits advance the commit frontier by one, assigns
// the assignment frontier), which replay verifies.
type Record struct {
	Kind    byte
	GSN     uint64
	ID      consistency.RequestID
	Method  string
	Payload []byte
	// Dup marks a re-sequenced duplicate: it advances the commit frontier
	// but is not applied to the application (see replica commit dedup).
	Dup bool
}

// Assign is one durable assignment-table entry: a GSN promised to a
// request whose commit had not yet been released when it was persisted.
type Assign struct {
	GSN uint64
	ID  consistency.RequestID
}

// Snapshot is the compaction cell: the application state at a commit
// frontier plus the commit-dedup memo seed, mirroring what a StateUpdate
// carries on the wire.
type Snapshot struct {
	CSN       uint64
	App       []byte
	RecentIDs []consistency.RequestID
	// Assigns is the outstanding assignment table above CSN, contiguous
	// from it (Assigns[i].GSN == CSN+i+1). Compaction folds the log into
	// the cell atomically; without this table a snapshot would silently
	// drop the assign records above its CSN and regress the durable
	// assignment frontier behind an acknowledged one.
	Assigns []Assign
}

// Frame layout (shared by records and the snapshot cell):
//
//	uint32  length of what follows (big-endian, excludes these 4 bytes)
//	uint32  CRC32 (IEEE) of the body
//	body:
//	  byte  version (currently 2)
//	  byte  kind (records only)
//	  ...   fields in internal/codec's encoding

// AppendRecord appends one encoded record frame to b. Assign records carry
// only (GSN, ID); the body fields are commit-only.
func AppendRecord(b []byte, r *Record) []byte {
	b, start := beginFrame(b)
	b = append(b, Version, r.Kind)
	b = binary.AppendUvarint(b, r.GSN)
	b = codec.AppendString(b, string(r.ID.Client))
	b = binary.AppendUvarint(b, r.ID.Seq)
	if r.Kind == KindCommit {
		b = codec.AppendString(b, r.Method)
		b = codec.AppendBytes(b, r.Payload)
		b = codec.AppendBool(b, r.Dup)
	}
	return endFrame(b, start)
}

// AppendSnapshot appends one encoded snapshot frame to b.
func AppendSnapshot(b []byte, s *Snapshot) []byte {
	b, start := beginFrame(b)
	b = append(b, Version)
	b = binary.AppendUvarint(b, s.CSN)
	b = codec.AppendBytes(b, s.App)
	b = binary.AppendUvarint(b, uint64(len(s.RecentIDs)))
	for _, id := range s.RecentIDs {
		b = codec.AppendString(b, string(id.Client))
		b = binary.AppendUvarint(b, id.Seq)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Assigns)))
	for _, a := range s.Assigns {
		b = binary.AppendUvarint(b, a.GSN)
		b = codec.AppendString(b, string(a.ID.Client))
		b = binary.AppendUvarint(b, a.ID.Seq)
	}
	return endFrame(b, start)
}

// beginFrame reserves the length+CRC header and returns its offset.
func beginFrame(b []byte) ([]byte, int) {
	start := len(b)
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0), start
}

// endFrame back-fills the length and CRC over the body written since start.
func endFrame(b []byte, start int) []byte {
	body := b[start+8:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(body)+4))
	binary.BigEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(body))
	return b
}

// DecodeRecord decodes exactly one record frame from the front of b,
// returning the bytes it consumed. It never misdecodes: the result is
// either a record whose encoding occupies exactly n bytes of b, or an
// error (ErrTorn for an incomplete final frame, ErrCorrupt for anything
// structurally invalid).
func DecodeRecord(b []byte) (r Record, n int, err error) {
	body, n, err := frameBody(b)
	if err != nil {
		return Record{}, 0, err
	}
	d := codec.NewReader(body)
	if v := d.Byte(); v != Version {
		return Record{}, 0, fmt.Errorf("%w: record version %d", ErrCorrupt, v)
	}
	r.Kind = d.Byte()
	if d.Err() == nil && r.Kind != KindCommit && r.Kind != KindAssign {
		return Record{}, 0, fmt.Errorf("%w: record kind %d", ErrCorrupt, r.Kind)
	}
	r.GSN = d.Uvarint()
	r.ID.Client = node.ID(d.Str())
	r.ID.Seq = d.Uvarint()
	if r.Kind == KindCommit {
		r.Method = d.Str()
		r.Payload = d.Bytes()
		r.Dup = d.Bool()
	}
	if d.Done() != nil {
		return Record{}, 0, ErrCorrupt
	}
	return r, n, nil
}

// DecodeSnapshot decodes exactly one snapshot frame from the front of b.
// Error semantics match DecodeRecord.
func DecodeSnapshot(b []byte) (s Snapshot, n int, err error) {
	body, n, err := frameBody(b)
	if err != nil {
		return Snapshot{}, 0, err
	}
	d := codec.NewReader(body)
	if v := d.Byte(); v != Version {
		return Snapshot{}, 0, fmt.Errorf("%w: snapshot version %d", ErrCorrupt, v)
	}
	s.CSN = d.Uvarint()
	s.App = d.Bytes()
	// Each ID needs at least one byte, each assign three (gsn, client
	// length, seq).
	if count := d.Count(1); count > 0 {
		s.RecentIDs = make([]consistency.RequestID, count)
		for i := range s.RecentIDs {
			s.RecentIDs[i].Client = node.ID(d.Str())
			s.RecentIDs[i].Seq = d.Uvarint()
		}
	}
	if count := d.Count(3); count > 0 {
		s.Assigns = make([]Assign, count)
		for i := range s.Assigns {
			s.Assigns[i].GSN = d.Uvarint()
			s.Assigns[i].ID.Client = node.ID(d.Str())
			s.Assigns[i].ID.Seq = d.Uvarint()
		}
	}
	if d.Done() != nil {
		return Snapshot{}, 0, ErrCorrupt
	}
	return s, n, nil
}

// frameBody validates the frame header at the front of b and returns the
// checked body plus the total frame size.
func frameBody(b []byte) (body []byte, n int, err error) {
	if len(b) < 8 {
		return nil, 0, ErrTorn
	}
	length := binary.BigEndian.Uint32(b)
	if length < 5 || length > maxRecordBytes {
		return nil, 0, fmt.Errorf("%w: frame length %d", ErrCorrupt, length)
	}
	n = 4 + int(length)
	if len(b) < n {
		return nil, 0, ErrTorn
	}
	sum := binary.BigEndian.Uint32(b[4:])
	body = b[8:n]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body, n, nil
}

// Replay decodes a log image into records, stopping deterministically at
// the first invalid boundary. It returns the good prefix, the byte length
// of that prefix, and whether the remainder was a torn tail (ErrTorn) as
// opposed to a clean end or detected corruption. Replaying the returned
// prefix is a fixed point: re-encoding it reproduces exactly the first
// valid bytes of the log.
func Replay(log []byte, visit func(Record) error) (valid int, torn bool, err error) {
	off := 0
	for off < len(log) {
		r, n, derr := DecodeRecord(log[off:])
		if derr != nil {
			return off, errors.Is(derr, ErrTorn), nil
		}
		if visit != nil {
			if err := visit(r); err != nil {
				return off, false, err
			}
		}
		off += n
	}
	return off, false, nil
}
