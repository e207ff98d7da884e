// Arena-backed shared decoding for the inbound hot path. The public
// DecodeFrame/Decode copy every variable-length field and box messages as
// interface values, which costs 2-4 heap allocations per frame. At the
// rates the live transport targets those allocations (and the GC cycles
// they feed) dominate single-core decode cost, so the read loop uses
// DecodeShared instead:
//
//   - byte fields ([]byte payloads, snapshots) alias the frame body
//     directly — zero copy. The caller must relinquish ownership of the
//     buffer to the decoded messages (the read loop's slab discipline).
//   - hot message types are boxed from per-decoder typed slabs, so the
//     interface conversion reuses amortized storage instead of allocating
//     per frame. Hot messages therefore arrive as pointers (*group.DataMsg,
//     *consistency.Request, ...); every protocol switch on the live path
//     accepts both the value and pointer forms.
//   - RequestID lists come from a shared slab as well.
//
// Rare control-plane types (PerfBroadcast, announcements, sync) keep plain
// value boxing — their rates are too low to matter.
package tcpnet

import (
	"aqua/internal/codec"
	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/node"
)

// arenaSlab is the element count of each typed slab. It only needs to be
// large enough to amortize the slab allocation across many frames; decoded
// messages keep their slot alive until the runtime drops them, and the GC
// reclaims whole slabs as usual.
const arenaSlab = 512

// decodeArena hands out typed message slots in slab-sized batches.
type decodeArena struct {
	dataMsgs []group.DataMsg
	acks     []group.AckMsg
	hbs      []group.HeartbeatMsg
	reqs     []consistency.Request
	replies  []consistency.Reply
	assigns  []consistency.GSNAssign
	batches  []consistency.GSNAssignBatch
	sus      []consistency.StateUpdate
	ids      []consistency.RequestID
}

func (a *decodeArena) putDataMsg(m group.DataMsg) *group.DataMsg {
	if len(a.dataMsgs) == 0 {
		a.dataMsgs = make([]group.DataMsg, arenaSlab)
	}
	p := &a.dataMsgs[0]
	a.dataMsgs = a.dataMsgs[1:]
	*p = m
	return p
}

func (a *decodeArena) putAck(m group.AckMsg) *group.AckMsg {
	if len(a.acks) == 0 {
		a.acks = make([]group.AckMsg, arenaSlab)
	}
	p := &a.acks[0]
	a.acks = a.acks[1:]
	*p = m
	return p
}

func (a *decodeArena) putHeartbeat(m group.HeartbeatMsg) *group.HeartbeatMsg {
	if len(a.hbs) == 0 {
		a.hbs = make([]group.HeartbeatMsg, arenaSlab)
	}
	p := &a.hbs[0]
	a.hbs = a.hbs[1:]
	*p = m
	return p
}

func (a *decodeArena) putRequest(m consistency.Request) *consistency.Request {
	if len(a.reqs) == 0 {
		a.reqs = make([]consistency.Request, arenaSlab)
	}
	p := &a.reqs[0]
	a.reqs = a.reqs[1:]
	*p = m
	return p
}

func (a *decodeArena) putReply(m consistency.Reply) *consistency.Reply {
	if len(a.replies) == 0 {
		a.replies = make([]consistency.Reply, arenaSlab)
	}
	p := &a.replies[0]
	a.replies = a.replies[1:]
	*p = m
	return p
}

func (a *decodeArena) putAssign(m consistency.GSNAssign) *consistency.GSNAssign {
	if len(a.assigns) == 0 {
		a.assigns = make([]consistency.GSNAssign, arenaSlab)
	}
	p := &a.assigns[0]
	a.assigns = a.assigns[1:]
	*p = m
	return p
}

func (a *decodeArena) putAssignBatch(m consistency.GSNAssignBatch) *consistency.GSNAssignBatch {
	if len(a.batches) == 0 {
		a.batches = make([]consistency.GSNAssignBatch, arenaSlab)
	}
	p := &a.batches[0]
	a.batches = a.batches[1:]
	*p = m
	return p
}

func (a *decodeArena) putStateUpdate(m consistency.StateUpdate) *consistency.StateUpdate {
	if len(a.sus) == 0 {
		a.sus = make([]consistency.StateUpdate, arenaSlab)
	}
	p := &a.sus[0]
	a.sus = a.sus[1:]
	*p = m
	return p
}

// requestIDs hands out an n-element RequestID slice from the shared slab.
func (a *decodeArena) requestIDs(n int) []consistency.RequestID {
	if len(a.ids) < n {
		a.ids = make([]consistency.RequestID, max(arenaSlab*4, n))
	}
	out := a.ids[:n:n]
	a.ids = a.ids[n:]
	return out
}

// DecodeShared parses one frame body with shared (zero-copy) semantics:
// decoded byte fields alias body, and hot message types are boxed from the
// decoder's slabs as pointers. The caller must hand ownership of body to
// the decoded message — body must not be reused or mutated afterwards.
// Everything else matches Decode: a frame either decodes exactly or errors.
func (d *FrameDecoder) DecodeShared(body []byte) (from, to node.ID, m node.Message, err error) {
	return decodeFrame(wireReader{Reader: codec.NewReader(body), intern: &d.intern, arena: &d.arena})
}

// Flatten undoes pointer boxing: messages decoded by DecodeShared arrive as
// pointers to slab slots; Flatten returns the equivalent value-boxed
// message (recursing into DataMsg payloads) so code that compares or
// type-asserts on value forms — tests, recorders — can normalize first.
// Value-boxed messages pass through unchanged.
func Flatten(m node.Message) node.Message {
	switch v := m.(type) {
	case *group.DataMsg:
		dm := *v
		dm.Payload = Flatten(dm.Payload)
		return dm
	case group.DataMsg:
		v.Payload = Flatten(v.Payload)
		return v
	case *group.AckMsg:
		return *v
	case *group.HeartbeatMsg:
		return *v
	case *consistency.Request:
		return *v
	case *consistency.Reply:
		return *v
	case *consistency.GSNAssign:
		return *v
	case *consistency.GSNAssignBatch:
		return *v
	case *consistency.StateUpdate:
		return *v
	default:
		return m
	}
}
