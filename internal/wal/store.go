package wal

import "fmt"

// Store is one replica's durable state: a snapshot cell plus the log of
// commits released since that snapshot. The owning gateway appends each run
// of released commits with one media append (before acknowledging any of
// them), replaces the snapshot at compaction points, and recovers snapshot +
// log suffix at startup. All methods are synchronous; the store carries no
// timers and draws no randomness, so it never perturbs the simulator's
// virtual time.
type Store struct {
	media Media

	// records counts log records since the last snapshot; frontier is the
	// GSN of the last appended commit record (the durable commit frontier).
	records  int
	frontier uint64

	// logBytes is the log's length since its last reset and cellBytes the
	// size of the snapshot cell: the default compaction rule weighs one
	// against the other (see CompactionDue). Recover restores both.
	logBytes  int
	cellBytes int

	// tail counts the bytes at the end of the recovered log that replay
	// could not cross. Anything appended behind them would be unreachable at
	// the next recovery, so appends are refused until a snapshot resets the
	// log (the gateway folds at Init; see Recovered.TailBytes).
	tail int

	// assignFrontier is the durable assignment frontier: every assignment
	// at or below it is held by an assign record, a commit record, or the
	// snapshot cell. Invariant: assignFrontier >= frontier (a released
	// commit subsumes its assignment). The gateway acknowledges only up to
	// this frontier, so an AssignAck survives the acker's crash.
	assignFrontier uint64

	// scratch backs record encoding between appends.
	scratch []byte

	// Counters for the observability layer.
	appends     uint64
	appendBytes uint64
	snapshots   uint64
}

// NewStore wraps a media. Nothing is read until Recover.
func NewStore(m Media) *Store { return &Store{media: m} }

// Recovered is the state a Store reconstructs at startup.
type Recovered struct {
	// Snapshot is the compaction cell (zero value when never written).
	Snapshot Snapshot
	// Records is the replayable commit-record suffix above the snapshot,
	// in commit order with strictly ascending GSNs.
	Records []Record
	// Assigns is the recovered assignment table above CSN, contiguous from
	// it: entries from the snapshot cell plus replayed assign records whose
	// commits had not been released at the crash.
	Assigns []Assign
	// CSN is the recovered commit frontier: the last commit record's GSN,
	// or the snapshot's CSN when the log holds no commits.
	CSN uint64
	// Torn reports that the log ended in an incomplete record (crash
	// mid-append), where replay stopped.
	Torn bool
	// TailBytes is the length of the log's unreplayed tail: the torn,
	// corrupt or non-contiguous bytes replay stopped at. Recovery cannot cut
	// them (the media only appends or resets), so when it is non-zero the
	// caller must fold the recovered state into a fresh snapshot cell —
	// SaveSnapshot resets the log — before it appends anything.
	TailBytes int
}

// Recover loads the snapshot cell and replays the log suffix. A torn final
// record ends replay (the expected crash artifact — with run-sized appends,
// anywhere inside the last run); corruption anywhere stops replay at the
// preceding record boundary — deterministically, so recovering twice from
// the same image yields the same frontier. Records at or below the snapshot
// CSN or breaking GSN contiguity also stop replay: past that point the log
// is not a trustworthy continuation. The store's append frontier resumes
// from the recovered state, but the bytes replay stopped at are still on the
// media: see Recovered.TailBytes.
func (s *Store) Recover() (Recovered, error) {
	var out Recovered
	cell, err := s.media.LoadSnapshot()
	if err != nil {
		return out, fmt.Errorf("wal: load snapshot: %w", err)
	}
	if len(cell) > 0 {
		snap, n, err := DecodeSnapshot(cell)
		if err != nil || n != len(cell) || !assignsContiguous(snap.CSN, snap.Assigns) {
			// An unreadable snapshot cell means no provable baseline: treat
			// the whole store as empty rather than replay a log whose
			// starting state is unknown.
			s.frontier, s.assignFrontier, s.records = 0, 0, 0
			s.logBytes, s.cellBytes, s.tail = 0, 0, 0
			return Recovered{}, fmt.Errorf("wal: snapshot cell unreadable: %w", errOr(err, ErrCorrupt))
		}
		out.Snapshot = snap
		out.CSN = snap.CSN
	}

	log, err := s.media.LoadLog()
	if err != nil {
		return out, fmt.Errorf("wal: load log: %w", err)
	}
	next := out.CSN
	assignNext := out.CSN + uint64(len(out.Snapshot.Assigns))
	out.Assigns = append(out.Assigns, out.Snapshot.Assigns...)
	replayed := 0
	stop := fmt.Errorf("wal: stop") // sentinel: replay prefix ends here
	valid, torn, _ := Replay(log, func(r Record) error {
		if r.Kind == KindAssign {
			if r.GSN != assignNext+1 {
				return stop
			}
			assignNext++
			replayed++
			out.Assigns = append(out.Assigns, Assign{GSN: r.GSN, ID: r.ID})
			return nil
		}
		if r.GSN != next+1 {
			return stop
		}
		next++
		if next > assignNext {
			// A commit subsumes its assignment; contiguity of the commit
			// chain keeps this a one-step extension at most.
			assignNext = next
		}
		replayed++
		out.Records = append(out.Records, r)
		return nil
	})
	out.Torn = torn
	out.TailBytes = len(log) - valid
	out.CSN = next
	// Commits released during replay subsume their table entries.
	if len(out.Assigns) > 0 {
		keep := out.Assigns[:0]
		for _, a := range out.Assigns {
			if a.GSN > out.CSN {
				keep = append(keep, a)
			}
		}
		if out.Assigns = keep; len(keep) == 0 {
			out.Assigns = nil
		}
	}
	s.frontier = next
	s.assignFrontier = assignNext
	if s.assignFrontier < s.frontier {
		s.assignFrontier = s.frontier
	}
	s.records = replayed
	s.logBytes, s.cellBytes, s.tail = len(log), len(cell), out.TailBytes
	return out, nil
}

// assignsContiguous verifies an assignment table extends csn one GSN at a
// time — the shape every writer produces and every reader depends on.
func assignsContiguous(csn uint64, assigns []Assign) bool {
	for i, a := range assigns {
		if a.GSN != csn+uint64(i)+1 {
			return false
		}
	}
	return true
}

// AppendCommits durably logs one run of released commits with a single
// media append — one durability barrier however long the run. The run must
// extend the commit frontier one GSN at a time; anything else is a caller
// bug. Nothing moves unless the media append returns nil: a failed run
// leaves both frontiers and every counter where they were, and what reached
// the media is at most a whole-record prefix plus a torn tail.
func (s *Store) AppendCommits(run []Record) error {
	b := s.scratch[:0]
	for i := range run {
		r := &run[i]
		if r.Kind != KindCommit {
			return fmt.Errorf("wal: commit run holds record kind %d; use AppendAssigns", r.Kind)
		}
		if at := s.frontier + uint64(i); r.GSN != at+1 {
			return fmt.Errorf("wal: commit gsn %d does not extend frontier %d", r.GSN, at)
		}
		b = AppendRecord(b, r)
	}
	if err := s.appendRun(b, len(run)); err != nil {
		return err
	}
	s.frontier += uint64(len(run))
	if s.assignFrontier < s.frontier {
		// A released commit subsumes its assignment.
		s.assignFrontier = s.frontier
	}
	return nil
}

// AppendAssigns durably logs one run of assignment-table entries with a
// single media append. The run must extend the assignment frontier one GSN
// at a time (the gateway logs the contiguous frontier extension before
// acknowledging it); anything else is a caller bug. Failure semantics match
// AppendCommits.
func (s *Store) AppendAssigns(run []Assign) error {
	b := s.scratch[:0]
	for i, a := range run {
		if at := s.assignFrontier + uint64(i); a.GSN != at+1 {
			return fmt.Errorf("wal: assign gsn %d does not extend assignment frontier %d", a.GSN, at)
		}
		b = AppendRecord(b, &Record{Kind: KindAssign, GSN: a.GSN, ID: a.ID})
	}
	if err := s.appendRun(b, len(run)); err != nil {
		return err
	}
	s.assignFrontier += uint64(len(run))
	return nil
}

// appendRun makes n encoded records durable with one media append and only
// then counts them. b is the store's scratch buffer, kept for the next run.
func (s *Store) appendRun(b []byte, n int) error {
	s.scratch = b
	if n == 0 {
		return nil
	}
	if s.tail > 0 {
		return fmt.Errorf("wal: log ends in %d unreplayable bytes; snapshot before appending", s.tail)
	}
	if err := s.media.AppendLog(b); err != nil {
		return err
	}
	s.records += n
	s.appends += uint64(n)
	s.appendBytes += uint64(len(b))
	s.logBytes += len(b)
	return nil
}

// SaveSnapshot replaces the snapshot cell with state at snap.CSN and resets
// the log: every record at or below it is subsumed. The caller passes state
// reflecting all logged commits (snap.CSN ≥ the append frontier); the
// frontier advances to it. The snapshot is made durable before the log is
// reset, so a crash between the two steps leaves a log whose records fall
// at or below the new snapshot — replay discards them.
func (s *Store) SaveSnapshot(snap *Snapshot) error {
	if snap.CSN < s.frontier {
		return fmt.Errorf("wal: snapshot csn %d below frontier %d", snap.CSN, s.frontier)
	}
	if !assignsContiguous(snap.CSN, snap.Assigns) {
		return fmt.Errorf("wal: snapshot assigns not contiguous from csn %d", snap.CSN)
	}
	if covered := snap.CSN + uint64(len(snap.Assigns)); covered < s.assignFrontier {
		// Resetting the log would drop assign records the snapshot does not
		// carry — regressing the durable frontier behind an acknowledged one.
		return fmt.Errorf("wal: snapshot covers assignments to %d, below frontier %d", covered, s.assignFrontier)
	}
	s.scratch = AppendSnapshot(s.scratch[:0], snap)
	if err := s.media.StoreSnapshot(s.scratch); err != nil {
		return err
	}
	if err := s.media.ResetLog(); err != nil {
		return err
	}
	s.frontier = snap.CSN
	s.assignFrontier = snap.CSN + uint64(len(snap.Assigns))
	s.records = 0
	s.logBytes, s.cellBytes, s.tail = 0, len(s.scratch), 0
	s.snapshots++
	return nil
}

// Frontier returns the durable commit frontier: the highest GSN whose
// record (or covering snapshot) the media holds.
func (s *Store) Frontier() uint64 { return s.frontier }

// AssignFrontier returns the durable assignment frontier: the highest GSN
// such that every assignment at or below it is on media (as an assign
// record, a commit record, or in the snapshot cell). Always at or above
// Frontier.
func (s *Store) AssignFrontier() uint64 { return s.assignFrontier }

// compactRecords is the default compaction rule's record floor.
const compactRecords = 256

// CompactionDue reports whether the log should be folded into a fresh
// snapshot cell. An explicit every > 0 is a plain record count. Otherwise
// the default rule amortises the cell rewrite against the log it replaces:
// at least compactRecords records and at least as many log bytes as the
// current cell, which bounds write amplification at 2× and replay at one
// cell's worth of log however large the application state grows.
func (s *Store) CompactionDue(every int) bool {
	if every > 0 {
		return s.records >= every
	}
	return s.records >= compactRecords && s.logBytes >= s.cellBytes
}

// LogBytes returns the log's length since its last reset.
func (s *Store) LogBytes() int { return s.logBytes }

// Stats returns the store's appended-record count, appended bytes, snapshot
// count, and the media's durability-barrier count, for the observability
// layer. A run of records is one barrier, so syncs ÷ appends falls as runs
// grow.
func (s *Store) Stats() (appends, appendBytes, snapshots, syncs uint64) {
	return s.appends, s.appendBytes, s.snapshots, s.media.Syncs()
}

// errOr returns err when non-nil, fallback otherwise.
func errOr(err, fallback error) error {
	if err != nil {
		return err
	}
	return fallback
}
