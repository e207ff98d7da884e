// Binary wire codec for the live transport. Frames are length-prefixed and
// hand-encoded — one type tag per registered protocol message, uvarint
// integers, zigzag varints for signed quantities — replacing the
// reflection-driven gob stream. The encoder is append-style over a caller
// owned buffer, so the steady-state encode path performs zero heap
// allocations per frame; the decoder copies variable-length fields out of
// the (reused) read buffer because decoded messages escape into the
// runtime asynchronously.
//
// Frame layout (all multi-byte fixed integers big-endian):
//
//	uint32  length of the body that follows (excludes these 4 bytes)
//	byte    wire version (currently 1)
//	string  From node ID   (uvarint length + bytes)
//	string  To node ID     (uvarint length + bytes)
//	byte    type tag       (see the tag table below)
//	...     message fields, in struct declaration order
//
// Field encodings are internal/codec's (uint64 → uvarint; int /
// time.Duration → zigzag varint; bool → one byte, 0 or 1, anything else
// malformed; string and []byte → uvarint length + bytes, length 0 decoding
// as nil/""). On top of them: RequestID → Client string + Seq uvarint;
// []RequestID → uvarint count + elements. group.DataMsg nests its payload
// as a complete tagged message (bounded depth).
//
// Evolution policy (see DESIGN.md §9): tags are append-only and never
// reused; changing a message's field set requires either a new tag or a
// wire version bump. Decoders reject unknown versions and unknown tags
// outright — a frame is never misdecoded into the wrong type — and the
// connection is dropped, so the peers resynchronize on re-dial and the
// group substrate's retransmission recovers the traffic.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"aqua/internal/codec"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
)

// WireVersion is the current frame format version.
const WireVersion = 1

// maxFrameBytes bounds a single frame (StateUpdate snapshots are the large
// case); oversized or negative lengths indicate a desynchronized or hostile
// stream and drop the connection.
const maxFrameBytes = 64 << 20

// maxPayloadNest bounds recursive DataMsg payload nesting during decode.
const maxPayloadNest = 8

// Type tags, append-only. Tag 0 is reserved as invalid forever.
const (
	tagDataMsg           = 1
	tagAckMsg            = 2
	tagHeartbeatMsg      = 3
	tagRequest           = 4
	tagReply             = 5
	tagGSNAssign         = 6
	tagGSNRequest        = 7
	tagBodyRequest       = 8
	tagSyncRequest       = 9
	tagGSNQuery          = 10
	tagGSNReport         = 11
	tagStateUpdate       = 12
	tagPerfBroadcast     = 13
	tagSequencerAnnounce = 14
	tagDigestAnnounce    = 15
	tagGSNAssignBatch    = 16
	tagShardMapAnnounce  = 17
	tagAssignAck         = 18
	tagOrderCommit       = 19
)

var (
	errUnknownTag = errors.New("tcpnet: unknown wire type tag")
	errVersion    = errors.New("tcpnet: unsupported wire version")
	errNested     = errors.New("tcpnet: payload nesting too deep")
	errFrameSize  = errors.New("tcpnet: frame exceeds size limit")
)

// AppendFrame appends the complete wire encoding of one frame — length
// prefix included — to buf and returns the extended buffer. On error buf is
// returned truncated to its original length. It allocates only when buf
// lacks capacity, so a writer reusing its buffer encodes frames without
// heap allocations.
func AppendFrame(buf []byte, from, to node.ID, m node.Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length backpatched below
	buf = append(buf, WireVersion)
	buf = codec.AppendString(buf, string(from))
	buf = codec.AppendString(buf, string(to))
	buf, err := appendMessage(buf, m, 0)
	if err != nil {
		return buf[:start], err
	}
	n := len(buf) - start - 4
	if n > maxFrameBytes {
		return buf[:start], errFrameSize
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// stateUpdateCache memoizes the encoded body of the most recently seen
// StateUpdate payload. The lazy publisher builds one StateUpdate per tick
// and fans it out to every secondary, so the DataMsg frames bound for
// different peers carry payloads whose CSN and slice identities match
// exactly; the first writer to encode the tick's snapshot pays for it, the
// rest splice the cached bytes. Identity keying (same backing arrays, not
// equal contents) makes false hits impossible. The cached body slice is
// immutable once published — replacements allocate fresh storage — so
// returning it outside the lock is safe.
type stateUpdateCache struct {
	mu   sync.Mutex
	csn  uint64
	snap []byte
	ids  []consistency.RequestID
	body []byte
}

func sameByteSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func sameIDSlice(a, b []consistency.RequestID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// encoded returns the tagged wire encoding of su, reusing the cached bytes
// when su shares the previous call's CSN and backing arrays.
func (c *stateUpdateCache) encoded(su consistency.StateUpdate) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.body != nil && su.CSN == c.csn && sameByteSlice(su.Snapshot, c.snap) && sameIDSlice(su.RecentIDs, c.ids) {
		return c.body
	}
	b, err := appendMessage(make([]byte, 0, 64+len(su.Snapshot)), su, 0)
	if err != nil {
		return nil // unreachable: StateUpdate always has a wire tag
	}
	c.csn, c.snap, c.ids, c.body = su.CSN, su.Snapshot, su.RecentIDs, b
	return b
}

// appendFrameVec is AppendFrame with the fan-out encode cache spliced in,
// shaped for the writer's vectored flush: a DataMsg carrying a StateUpdate
// appends only the frame header (length prefix covering header+body,
// addressing, DataMsg fields) to buf and returns the cached payload
// encoding separately, so the writer can splice it into a net.Buffers write
// instead of copying it per peer. Every other message appends fully with
// cached == nil. Header followed by cached is byte-identical to
// AppendFrame's output.
func (t *Transport) appendFrameVec(buf []byte, from, to node.ID, m node.Message) (out, cached []byte, err error) {
	dm, ok := m.(group.DataMsg)
	if !ok {
		if p, isPtr := m.(*group.DataMsg); isPtr {
			dm = *p
		} else {
			out, err = AppendFrame(buf, from, to, m)
			return out, nil, err
		}
	}
	su, ok := dm.Payload.(consistency.StateUpdate)
	if !ok {
		if p, isPtr := dm.Payload.(*consistency.StateUpdate); isPtr {
			su = *p
		} else {
			out, err = AppendFrame(buf, from, to, m)
			return out, nil, err
		}
	}
	body := t.suCache.encoded(su)
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, WireVersion)
	buf = codec.AppendString(buf, string(from))
	buf = codec.AppendString(buf, string(to))
	buf = append(buf, tagDataMsg)
	buf = binary.AppendUvarint(buf, dm.SrcEpoch)
	buf = binary.AppendUvarint(buf, dm.Gen)
	buf = binary.AppendUvarint(buf, dm.Seq)
	n := len(buf) - start - 4 + len(body)
	if n > maxFrameBytes {
		return buf[:start], nil, errFrameSize
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, body, nil
}

// DecodeFrame parses one frame body (the bytes after the 4-byte length
// prefix). Variable-length fields are copied out of body, so the caller may
// reuse it. Unknown versions or type tags, truncated fields, and trailing
// bytes are all errors — a frame either decodes exactly or not at all.
func DecodeFrame(body []byte) (from, to node.ID, m node.Message, err error) {
	var d FrameDecoder
	return d.Decode(body)
}

// FrameDecoder is DecodeFrame plus a small intern cache for the short
// strings every frame repeats (node IDs, method names), so steady-state
// decoding of a connection's traffic does not re-allocate them per frame,
// and typed slabs backing the zero-copy DecodeShared path (wirearena.go).
// Not safe for concurrent use; each read loop owns one.
type FrameDecoder struct {
	intern internTable
	arena  decodeArena
}

// Decode is DecodeFrame against this decoder's intern cache.
func (d *FrameDecoder) Decode(body []byte) (from, to node.ID, m node.Message, err error) {
	return decodeFrame(wireReader{Reader: codec.NewReader(body), intern: &d.intern})
}

// decodeFrame reads the version byte, addressing and message of one frame
// body; Decode and DecodeShared differ only in the reader they pass.
func decodeFrame(r wireReader) (from, to node.ID, m node.Message, err error) {
	if v := r.Byte(); r.Err() == nil && v != WireVersion {
		return "", "", nil, errVersion
	}
	from = r.id()
	to = r.id()
	m = decodeMessage(&r, 0)
	if err := r.Done(); err != nil {
		return "", "", nil, err
	}
	return from, to, m, nil
}

func appendDuration(b []byte, d time.Duration) []byte {
	return binary.AppendVarint(b, int64(d))
}

func appendRequestID(b []byte, id consistency.RequestID) []byte {
	b = codec.AppendString(b, string(id.Client))
	return binary.AppendUvarint(b, id.Seq)
}

// appendMessage writes the tag plus fields of every protocol message type.
// Unregistered types are an error (the frame is dropped and counted), the
// same contract gob's unregistered-type failure gave the old transport.
func appendMessage(b []byte, m node.Message, depth int) ([]byte, error) {
	if depth > maxPayloadNest {
		return b, errNested
	}
	switch v := m.(type) {
	// Pointer forms come from DecodeShared's slab boxing; a node that
	// forwards a received message re-encodes it here, so both forms are
	// accepted and produce identical bytes.
	case *group.DataMsg:
		return appendMessage(b, *v, depth)
	case *group.AckMsg:
		return appendMessage(b, *v, depth)
	case *group.HeartbeatMsg:
		return appendMessage(b, *v, depth)
	case *consistency.Request:
		return appendMessage(b, *v, depth)
	case *consistency.Reply:
		return appendMessage(b, *v, depth)
	case *consistency.GSNAssign:
		return appendMessage(b, *v, depth)
	case *consistency.GSNAssignBatch:
		return appendMessage(b, *v, depth)
	case *consistency.StateUpdate:
		return appendMessage(b, *v, depth)
	case group.DataMsg:
		b = append(b, tagDataMsg)
		b = binary.AppendUvarint(b, v.SrcEpoch)
		b = binary.AppendUvarint(b, v.Gen)
		b = binary.AppendUvarint(b, v.Seq)
		return appendMessage(b, v.Payload, depth+1)
	case group.AckMsg:
		b = append(b, tagAckMsg)
		b = binary.AppendUvarint(b, v.SrcEpoch)
		b = binary.AppendUvarint(b, v.DstEpoch)
		b = binary.AppendUvarint(b, v.Gen)
		return binary.AppendUvarint(b, v.Expected), nil
	case group.HeartbeatMsg:
		b = append(b, tagHeartbeatMsg)
		return codec.AppendString(b, v.Group), nil
	case consistency.Request:
		b = append(b, tagRequest)
		b = appendRequestID(b, v.ID)
		b = codec.AppendString(b, v.Method)
		b = codec.AppendBytes(b, v.Payload)
		b = codec.AppendBool(b, v.ReadOnly)
		return binary.AppendVarint(b, int64(v.Staleness)), nil
	case consistency.Reply:
		b = append(b, tagReply)
		b = appendRequestID(b, v.ID)
		b = codec.AppendBytes(b, v.Payload)
		b = codec.AppendString(b, v.Err)
		b = appendDuration(b, v.T1)
		b = binary.AppendUvarint(b, v.CSN)
		b = codec.AppendString(b, string(v.Replica))
		return codec.AppendBool(b, v.Deferred), nil
	case consistency.GSNAssign:
		b = append(b, tagGSNAssign)
		b = appendRequestID(b, v.ID)
		b = binary.AppendUvarint(b, v.GSN)
		return codec.AppendBool(b, v.Update), nil
	case consistency.GSNRequest:
		b = append(b, tagGSNRequest)
		b = appendRequestID(b, v.ID)
		return codec.AppendBool(b, v.Update), nil
	case consistency.BodyRequest:
		b = append(b, tagBodyRequest)
		return appendRequestID(b, v.ID), nil
	case consistency.SyncRequest:
		return append(b, tagSyncRequest), nil
	case consistency.GSNQuery:
		b = append(b, tagGSNQuery)
		return binary.AppendUvarint(b, v.Epoch), nil
	case consistency.GSNReport:
		b = append(b, tagGSNReport)
		b = binary.AppendUvarint(b, v.Epoch)
		b = binary.AppendUvarint(b, v.GSN)
		b = binary.AppendUvarint(b, uint64(len(v.Assigns)))
		for _, a := range v.Assigns {
			b = appendRequestID(b, a.ID)
			b = binary.AppendUvarint(b, a.GSN)
			b = codec.AppendBool(b, a.Update)
		}
		return b, nil
	case consistency.AssignAck:
		b = append(b, tagAssignAck)
		b = binary.AppendUvarint(b, v.Epoch)
		return binary.AppendUvarint(b, v.Frontier), nil
	case consistency.OrderCommit:
		b = append(b, tagOrderCommit)
		b = binary.AppendUvarint(b, v.Epoch)
		return binary.AppendUvarint(b, v.Floor), nil
	case consistency.StateUpdate:
		b = append(b, tagStateUpdate)
		b = binary.AppendUvarint(b, v.CSN)
		b = codec.AppendBytes(b, v.Snapshot)
		b = binary.AppendUvarint(b, uint64(len(v.RecentIDs)))
		for _, id := range v.RecentIDs {
			b = appendRequestID(b, id)
		}
		return b, nil
	case consistency.PerfBroadcast:
		b = append(b, tagPerfBroadcast)
		b = codec.AppendString(b, string(v.Replica))
		b = appendDuration(b, v.TS)
		b = appendDuration(b, v.TQ)
		b = appendDuration(b, v.TB)
		b = codec.AppendBool(b, v.Deferred)
		b = codec.AppendBool(b, v.Primary)
		b = codec.AppendString(b, string(v.Sequencer))
		b = codec.AppendBool(b, v.IsPublisher)
		b = binary.AppendVarint(b, int64(v.NU))
		b = appendDuration(b, v.TU)
		b = binary.AppendVarint(b, int64(v.NL))
		return appendDuration(b, v.TL), nil
	case consistency.SequencerAnnounce:
		b = append(b, tagSequencerAnnounce)
		return codec.AppendString(b, string(v.Sequencer)), nil
	case consistency.DigestAnnounce:
		b = append(b, tagDigestAnnounce)
		b = binary.AppendUvarint(b, v.Applied)
		return binary.AppendUvarint(b, v.Hash), nil
	case consistency.GSNAssignBatch:
		b = append(b, tagGSNAssignBatch)
		b = binary.AppendUvarint(b, v.First)
		b = binary.AppendUvarint(b, uint64(len(v.Updates)))
		for _, id := range v.Updates {
			b = appendRequestID(b, id)
		}
		b = binary.AppendUvarint(b, v.ReadGSN)
		b = binary.AppendUvarint(b, uint64(len(v.Reads)))
		for _, id := range v.Reads {
			b = appendRequestID(b, id)
		}
		return b, nil
	case consistency.ShardMapAnnounce:
		b = append(b, tagShardMapAnnounce)
		b = binary.AppendUvarint(b, v.Version)
		b = binary.AppendUvarint(b, uint64(v.Shards))
		b = binary.AppendUvarint(b, uint64(len(v.Starts)))
		for _, s := range v.Starts {
			b = binary.AppendUvarint(b, uint64(s))
		}
		b = binary.AppendUvarint(b, uint64(len(v.Owners)))
		for _, o := range v.Owners {
			b = binary.AppendUvarint(b, uint64(o))
		}
		return b, nil
	default:
		return b, fmt.Errorf("tcpnet: message type %T has no wire tag; add one in wire.go", m)
	}
}

// wireReader is codec's fail-latching Reader plus the transport's own
// decoding: interned strings, and under DecodeShared aliased byte fields
// and slab-boxed messages.
type wireReader struct {
	codec.Reader
	intern *internTable
	arena  *decodeArena // non-nil: shared decode (alias bytes, slab boxing)
}

func (r *wireReader) duration() time.Duration { return time.Duration(r.Varint()) }

// bytes returns the next length-prefixed byte field (nil for length 0,
// matching gob's omitted-zero-field decoding): a copy, or under shared
// decode an alias of the frame body — the DecodeShared contract transfers
// buffer ownership to the message.
func (r *wireReader) bytes() []byte {
	if r.arena == nil {
		return r.Bytes()
	}
	if p := r.Take(r.Uvarint()); len(p) != 0 {
		return p
	}
	return nil
}

func (r *wireReader) str() string { return r.intern.get(r.Take(r.Uvarint())) }

// internTable is a direct-mapped cache of short decoded strings. A
// connection's frames repeat a tiny vocabulary — node IDs, method names —
// so a hit returns the previously allocated string instead of copying the
// bytes again. Misses (and strings too long to be worth caching) fall back
// to a plain copy; correctness never depends on a hit, only allocation
// count does. Strings are immutable, so sharing them across decoded
// messages is safe. Single-goroutine use only.
type internTable struct {
	slots [128]string
}

func (t *internTable) get(b []byte) string {
	if t == nil || len(b) == 0 || len(b) > 64 {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	s := &t.slots[h%uint32(len(t.slots))]
	if *s == string(b) { // compiled as an alloc-free comparison
		return *s
	}
	*s = string(b)
	return *s
}

func (r *wireReader) id() node.ID { return node.ID(r.str()) }

func (r *wireReader) requestID() consistency.RequestID {
	return consistency.RequestID{Client: r.id(), Seq: r.Uvarint()}
}

// uint32s decodes a uvarint-counted list of uvarint-encoded uint32 values
// (each at least one byte).
func (r *wireReader) uint32s() []uint32 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(r.Uvarint())
	}
	return out
}

// gsnAssigns decodes a length-prefixed list of GSN assignments (a
// GSNReport's takeover-merge memo). Always heap-allocated: reports are rare
// failover traffic, not worth arena space.
func (r *wireReader) gsnAssigns() []consistency.GSNAssign {
	// Every GSNAssign costs >= 4 bytes on the wire (id >= 2, gsn, update).
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]consistency.GSNAssign, n)
	for i := range out {
		out[i].ID = r.requestID()
		out[i].GSN = r.Uvarint()
		out[i].Update = r.Bool()
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

// requestIDs decodes a length-prefixed RequestID list (nil for length 0;
// each ID is at least 2 bytes).
func (r *wireReader) requestIDs() []consistency.RequestID {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	var out []consistency.RequestID
	if r.arena != nil {
		out = r.arena.requestIDs(n)
	} else {
		out = make([]consistency.RequestID, n)
	}
	for i := range out {
		out[i] = r.requestID()
	}
	return out
}

func decodeMessage(r *wireReader, depth int) node.Message {
	if depth > maxPayloadNest {
		r.Fail(errNested)
		return nil
	}
	switch tag := r.Byte(); tag {
	case tagDataMsg:
		var m group.DataMsg
		m.SrcEpoch = r.Uvarint()
		m.Gen = r.Uvarint()
		m.Seq = r.Uvarint()
		m.Payload = decodeMessage(r, depth+1)
		if r.arena != nil {
			return slot(&r.arena.dataMsgs, m)
		}
		return m
	case tagAckMsg:
		var m group.AckMsg
		m.SrcEpoch = r.Uvarint()
		m.DstEpoch = r.Uvarint()
		m.Gen = r.Uvarint()
		m.Expected = r.Uvarint()
		if r.arena != nil {
			return slot(&r.arena.acks, m)
		}
		return m
	case tagHeartbeatMsg:
		if r.arena != nil {
			return slot(&r.arena.hbs, group.HeartbeatMsg{Group: r.str()})
		}
		return group.HeartbeatMsg{Group: r.str()}
	case tagRequest:
		var m consistency.Request
		m.ID = r.requestID()
		m.Method = r.str()
		m.Payload = r.bytes()
		m.ReadOnly = r.Bool()
		m.Staleness = int(r.Varint())
		if r.arena != nil {
			return slot(&r.arena.reqs, m)
		}
		return m
	case tagReply:
		var m consistency.Reply
		m.ID = r.requestID()
		m.Payload = r.bytes()
		m.Err = r.str()
		m.T1 = r.duration()
		m.CSN = r.Uvarint()
		m.Replica = r.id()
		m.Deferred = r.Bool()
		if r.arena != nil {
			return slot(&r.arena.replies, m)
		}
		return m
	case tagGSNAssign:
		var m consistency.GSNAssign
		m.ID = r.requestID()
		m.GSN = r.Uvarint()
		m.Update = r.Bool()
		if r.arena != nil {
			return slot(&r.arena.assigns, m)
		}
		return m
	case tagGSNRequest:
		var m consistency.GSNRequest
		m.ID = r.requestID()
		m.Update = r.Bool()
		return m
	case tagBodyRequest:
		return consistency.BodyRequest{ID: r.requestID()}
	case tagSyncRequest:
		return consistency.SyncRequest{}
	case tagGSNQuery:
		return consistency.GSNQuery{Epoch: r.Uvarint()}
	case tagGSNReport:
		var m consistency.GSNReport
		m.Epoch = r.Uvarint()
		m.GSN = r.Uvarint()
		m.Assigns = r.gsnAssigns()
		return m
	case tagAssignAck:
		var m consistency.AssignAck
		m.Epoch = r.Uvarint()
		m.Frontier = r.Uvarint()
		return m
	case tagOrderCommit:
		var m consistency.OrderCommit
		m.Epoch = r.Uvarint()
		m.Floor = r.Uvarint()
		return m
	case tagStateUpdate:
		var m consistency.StateUpdate
		m.CSN = r.Uvarint()
		m.Snapshot = r.bytes()
		m.RecentIDs = r.requestIDs()
		if r.arena != nil {
			return slot(&r.arena.sus, m)
		}
		return m
	case tagPerfBroadcast:
		var m consistency.PerfBroadcast
		m.Replica = r.id()
		m.TS = r.duration()
		m.TQ = r.duration()
		m.TB = r.duration()
		m.Deferred = r.Bool()
		m.Primary = r.Bool()
		m.Sequencer = r.id()
		m.IsPublisher = r.Bool()
		m.NU = int(r.Varint())
		m.TU = r.duration()
		m.NL = int(r.Varint())
		m.TL = r.duration()
		return m
	case tagSequencerAnnounce:
		return consistency.SequencerAnnounce{Sequencer: r.id()}
	case tagDigestAnnounce:
		var m consistency.DigestAnnounce
		m.Applied = r.Uvarint()
		m.Hash = r.Uvarint()
		return m
	case tagGSNAssignBatch:
		var m consistency.GSNAssignBatch
		m.First = r.Uvarint()
		m.Updates = r.requestIDs()
		m.ReadGSN = r.Uvarint()
		m.Reads = r.requestIDs()
		if r.arena != nil {
			return slot(&r.arena.batches, m)
		}
		return m
	case tagShardMapAnnounce:
		var m consistency.ShardMapAnnounce
		m.Version = r.Uvarint()
		m.Shards = uint32(r.Uvarint())
		m.Starts = r.uint32s()
		m.Owners = r.uint32s()
		return m
	default:
		r.Fail(errUnknownTag)
		return nil
	}
}
