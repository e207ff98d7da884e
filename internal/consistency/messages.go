// Package consistency implements the paper's tunable consistency protocols
// (Section 4): the wire messages exchanged between client gateways, server
// gateways, the sequencer and the lazy publisher, plus the pure protocol
// state machines — GSN assignment, commit-in-GSN-order buffering, and
// deferred-read queueing — that the replica gateway composes.
//
// The message types in this file cross process boundaries: the live TCP
// transport encodes each with a hand-written case in its binary codec
// (internal/tcpnet/wire.go, format in DESIGN.md §9), keyed by a per-type
// wire tag. Evolving a message therefore means evolving the codec in the
// same change: a new field extends the matching encode/decode pair (old
// peers reject the frame rather than misread it), a new message gets a new
// tag appended to the table, and anything incompatible bumps WireVersion.
// tcpnet's TestWireCodecDifferential, which checks the codec against
// encoding/gob as a reference, catches a struct and codec that have
// drifted apart.
package consistency

import (
	"time"

	"aqua/internal/node"
)

// RequestID uniquely identifies a client request: the issuing client plus a
// client-local sequence number.
type RequestID struct {
	Client node.ID
	Seq    uint64
}

// Request is a client gateway's invocation as transmitted to server
// gateways (and, for reads, to the sequencer).
type Request struct {
	ID       RequestID
	Method   string
	Payload  []byte
	ReadOnly bool
	// Staleness is the client's staleness threshold a; only meaningful for
	// read-only requests.
	Staleness int
}

// Reply is a server gateway's response. T1 piggybacks ts+tq+tb exactly as
// in Section 5.4 so the client can derive the gateway delay.
type Reply struct {
	ID      RequestID
	Payload []byte
	Err     string
	// T1 = service time + queueing delay + defer wait at the replica.
	T1 time.Duration
	// CSN is the replica's commit sequence number when it served the
	// request (diagnostic; staleness guarantees are enforced server-side).
	CSN uint64
	// Replica identifies the responding server gateway.
	Replica node.ID
	// Deferred reports that this reply served a read deferred until a lazy
	// state update (diagnostic; feeds client-side trace spans).
	Deferred bool
}

// GSNAssign is the sequencer's broadcast assigning (for updates) or
// reporting (for reads) the Global Sequence Number for a request.
type GSNAssign struct {
	ID RequestID
	// GSN is the assigned sequence number for updates, or the current GSN
	// (not advanced) for read-only requests.
	GSN uint64
	// Update distinguishes an assignment from a read snapshot.
	Update bool
}

// GSNAssignBatch is the sequencer's batched broadcast: one message covers a
// contiguous window of update assignments plus the read snapshots taken at
// the window's end. Semantically it is exactly the sequence of singleton
// GSNAssign messages {Updates[i] ↦ First+i, Update: true} followed by
// {Reads[j] ↦ ReadGSN, Update: false}; batching amortizes the per-broadcast
// cost of the sequencer's ordering pipeline across the window.
type GSNAssignBatch struct {
	// First is the GSN assigned to Updates[0]; Updates[i] holds GSN First+i.
	First   uint64
	Updates []RequestID
	// ReadGSN is the snapshot GSN reported for every ID in Reads: the
	// window's post-update frontier, First+len(Updates)-1 (or the
	// sequencer's GSN at flush time when the window carried no updates).
	ReadGSN uint64
	Reads   []RequestID
}

// GSNRequest asks the current sequencer to (re)issue a GSNAssign for a
// request. Replicas send it when a buffered request has waited too long for
// its assignment — the recovery path after a sequencer failover loses an
// in-flight broadcast.
type GSNRequest struct {
	ID     RequestID
	Update bool
}

// BodyRequest asks a peer primary for an update body this replica has a
// GSN assignment for but never received — the recovery path when a
// client's update multicast reached only part of the primary group. The
// peer answers by re-sending the original Request.
type BodyRequest struct {
	ID RequestID
}

// StateUpdate is the lazy publisher's periodic state propagation to the
// secondary group (also the recovery snapshot answering a SyncRequest).
type StateUpdate struct {
	// CSN is the publisher's commit sequence number at snapshot time.
	CSN uint64
	// Snapshot is the application state produced by Application.Snapshot.
	Snapshot []byte
	// RecentIDs are the request IDs of recently committed updates. A
	// recovering replica seeds its commit-dedup memo from them: a client
	// retransmission that crosses a sequencer failover can be assigned a
	// second GSN, and without the memo the restored replica would apply
	// the same logical update twice.
	RecentIDs []RequestID
}

// SyncRequest asks the current sequencer for a full state snapshot (the
// reply is a StateUpdate). Sent by replicas at startup and whenever their
// commit stream detects a gap it cannot close — the recovery path for a
// restarted replica rejoining the group.
type SyncRequest struct{}

// GSNQuery and GSNReport implement sequencer failover: a new primary-group
// leader queries the group for the highest GSN anyone has seen before it
// resumes assigning.
type (
	// GSNQuery asks a primary replica for the highest GSN it has observed.
	GSNQuery struct{ Epoch uint64 }
	// GSNReport answers a GSNQuery.
	GSNReport struct {
		Epoch uint64
		GSN   uint64
		// Assigns, sent under replicated GSN assignment, carries the
		// reporter's recent (request → GSN) assignment memo so the new
		// sequencer merges every survivor's table before resuming: any
		// assignment released to the application was acknowledged by a
		// majority, every takeover quorum intersects that majority, and the
		// merge therefore re-covers it — no assignment hole survives a
		// sequencer death. Empty in the legacy (timeout-takeover) mode.
		Assigns []GSNAssign
	}
)

// AssignAck is a primary's cumulative ordering acknowledgement under
// replicated GSN assignment (DESIGN.md §14): the sender knows the
// (GSN → request) mapping for every update GSN at or below Frontier.
// Frontiers are monotone within an incarnation, so redelivery and
// reordering are harmless.
type AssignAck struct {
	// Epoch echoes the sender's view of the sequencer era (diagnostic; the
	// floor's safety rests on frontier monotonicity, not on epochs).
	Epoch uint64
	// Frontier is the sender's contiguous assignment frontier
	// (CommitBuffer.AssignFrontier).
	Frontier uint64
}

// OrderCommit is the sequencer's replicated-ordering release: a majority of
// the primary group (sequencer included) has acknowledged every assignment
// at or below Floor, so replicas may release commits up to it. Floors are
// monotone facts — once a majority holds an assignment it holds it forever —
// so a stale or duplicated OrderCommit is harmless.
type OrderCommit struct {
	Epoch uint64
	Floor uint64
}

// DigestAnnounce is the sequencer's periodic anti-entropy beacon: its
// applied position and a hash of its state. A primary at the same position
// with a different hash has diverged (only possible in the pathological
// re-sequencing window around a sequencer crash) and resynchronizes with a
// SyncRequest.
type DigestAnnounce struct {
	Applied uint64
	Hash    uint64
}

// SequencerAnnounce tells replicas and clients who the sequencer is after a
// failover.
type SequencerAnnounce struct {
	Sequencer node.ID
}

// ShardMapAnnounce propagates one shard-map version (internal/shard.Map) to
// routers: the ring's range starts and their owning shard indices. Routers
// ignore versions at or below the one they hold, so redelivery and
// reordering are harmless.
type ShardMapAnnounce struct {
	Version uint64
	// Shards is the total shard count; every owner index is below it.
	Shards uint32
	// Starts are the ascending range lower bounds on the 32-bit hash ring
	// (Starts[0] is always 0); Owners[i] owns [Starts[i], Starts[i+1]).
	Starts []uint32
	Owners []uint32
}

// PerfBroadcast carries a server gateway's newly measured performance
// parameters to every client (Section 5.4). The lazy publisher additionally
// fills the update-arrival counters used by the staleness model
// (Section 5.4.1).
type PerfBroadcast struct {
	Replica node.ID
	// TS, TQ, TB are the service time, queueing delay and buffering (defer)
	// time of the read this broadcast reports.
	TS, TQ, TB time.Duration
	// Deferred marks measurements from a deferred read, whose TB feeds the
	// client's history of the lazy-update wait U.
	Deferred bool
	// Primary reports whether the sender currently belongs to the primary
	// group, letting clients apply staleness factor 1 to it.
	Primary bool
	// Sequencer is the sender's current view of the sequencer identity, so
	// clients follow failovers.
	Sequencer node.ID

	// Publisher data; valid only when IsPublisher.
	IsPublisher bool
	// NU updates arrived in the TU since the publisher's last broadcast.
	NU int
	TU time.Duration
	// NL updates arrived in the TL since the last lazy state update.
	NL int
	TL time.Duration
}
