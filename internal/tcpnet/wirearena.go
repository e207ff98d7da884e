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

// slot copies m into the next free element of a typed slab, refilling the
// slab with arenaSlab fresh elements when it runs out, and returns its
// address.
func slot[T any](slab *[]T, m T) *T {
	if len(*slab) == 0 {
		*slab = make([]T, arenaSlab)
	}
	p := &(*slab)[0]
	*slab = (*slab)[1:]
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
