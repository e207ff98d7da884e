package consistency

// SequencerState is the pure state machine of the GSN sequencer: it assigns
// strictly increasing Global Sequence Numbers to update requests and
// snapshots the current GSN for read requests. Assignments are memoized so
// duplicate requests (client retransmissions, post-failover GSNRequests)
// re-receive their original number — assigning a fresh GSN to a duplicate
// would violate sequential consistency.
type SequencerState struct {
	gsn      uint64
	assigned *Memo[uint64]

	// freshScratch and dupScratch back the slices returned by
	// AssignUpdateBatch; valid only until the next call (the owning node's
	// callbacks are serialized, and the gateway copies what escapes).
	freshScratch []RequestID
	dupScratch   []GSNAssign
}

// NewSequencerState creates a sequencer state. maxMemo bounds the
// assignment memo (oldest entries are pruned); <=0 selects a default large
// enough that only long-gone requests are forgotten.
func NewSequencerState(maxMemo int) *SequencerState {
	if maxMemo <= 0 {
		maxMemo = 4096
	}
	return &SequencerState{assigned: NewMemo[uint64](maxMemo)}
}

// GSN returns the current (highest assigned) global sequence number.
func (s *SequencerState) GSN() uint64 { return s.gsn }

// Resume installs a starting GSN after failover; the new sequencer calls it
// with the highest GSN discovered by its GSNQuery round. It never moves the
// counter backwards.
func (s *SequencerState) Resume(gsn uint64) {
	if gsn > s.gsn {
		s.gsn = gsn
	}
}

// AssignUpdate returns the GSN for an update request, advancing the counter
// exactly once per distinct request ID.
func (s *SequencerState) AssignUpdate(id RequestID) uint64 {
	if g, ok := s.assigned.Get(id); ok {
		return g
	}
	s.gsn++
	s.assigned.Put(id, s.gsn)
	return s.gsn
}

// AssignUpdateBatch assigns one contiguous GSN window to the IDs in ids
// that have no memoized assignment: fresh[i] receives GSN first+i, each
// memoized exactly as AssignUpdate would have. IDs already assigned (client
// retransmissions, chase re-issues — including duplicates within ids
// itself) keep their original numbers and are returned separately as
// singleton re-broadcasts. Both returned slices share the state's scratch
// buffers and are valid only until the next call; first is meaningless when
// fresh is empty.
func (s *SequencerState) AssignUpdateBatch(ids []RequestID) (first uint64, fresh []RequestID, dups []GSNAssign) {
	fresh = s.freshScratch[:0]
	dups = s.dupScratch[:0]
	for _, id := range ids {
		if g, ok := s.assigned.Get(id); ok {
			dups = append(dups, GSNAssign{ID: id, GSN: g, Update: true})
			continue
		}
		s.gsn++
		if len(fresh) == 0 {
			first = s.gsn
		}
		s.assigned.Put(id, s.gsn)
		fresh = append(fresh, id)
	}
	s.freshScratch, s.dupScratch = fresh, dups
	return first, fresh, dups
}

// SnapshotRead returns the current GSN for a read request without advancing
// it. Reads are memoized too: a deferred GSNRequest for a read must observe
// the GSN the read was originally ordered against, not a later one.
func (s *SequencerState) SnapshotRead(id RequestID) uint64 {
	if g, ok := s.assigned.Get(id); ok {
		return g
	}
	s.assigned.Put(id, s.gsn)
	return s.gsn
}
