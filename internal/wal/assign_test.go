package wal

import (
	"errors"
	"fmt"
	"testing"

	"aqua/internal/consistency"
	"aqua/internal/node"
)

func asg(gsn uint64) Assign {
	return Assign{
		GSN: gsn,
		ID:  consistency.RequestID{Client: node.ID(fmt.Sprintf("c%02d", gsn%3)), Seq: gsn},
	}
}

func TestAssignRecordRoundTrip(t *testing.T) {
	want := Record{Kind: KindAssign, GSN: 9, ID: consistency.RequestID{Client: "c01", Seq: 9}}
	b := AppendRecord(nil, &want)
	got, n, err := DecodeRecord(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(b))
	}
	if got.Kind != KindAssign || got.GSN != want.GSN || got.ID != want.ID ||
		got.Method != "" || got.Payload != nil || got.Dup {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	// An assign record is much smaller than a commit record: no method, no
	// payload, no dup byte.
	c := rec(9)
	if cb := AppendRecord(nil, &c); len(b) >= len(cb) {
		t.Fatalf("assign record (%d bytes) not smaller than commit record (%d bytes)", len(b), len(cb))
	}
}

func TestRecordRejectsUnknownKind(t *testing.T) {
	r := Record{Kind: 7, GSN: 1, ID: consistency.RequestID{Client: "c", Seq: 1}}
	b := AppendRecord(nil, &r)
	if _, _, err := DecodeRecord(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind decoded: err=%v", err)
	}
}

func TestSnapshotAssignsRoundTrip(t *testing.T) {
	want := Snapshot{
		CSN:     5,
		App:     []byte("state"),
		Assigns: []Assign{asg(6), asg(7), asg(8)},
	}
	b := AppendSnapshot(nil, &want)
	got, n, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(b))
	}
	if len(got.Assigns) != 3 {
		t.Fatalf("assigns = %+v, want 3 entries", got.Assigns)
	}
	for i, a := range got.Assigns {
		if a != want.Assigns[i] {
			t.Fatalf("assign[%d] = %+v, want %+v", i, a, want.Assigns[i])
		}
	}
}

// TestStoreAppendAssignContiguity: assignments must extend the assignment
// frontier one GSN at a time, and a released commit subsumes (and can
// extend past) the assign chain.
func TestStoreAppendAssignContiguity(t *testing.T) {
	s := NewStore(NewMemMedia())
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAssigns([]Assign{asg(2)}); err == nil {
		t.Fatal("gap assign (gsn 2 into empty store) accepted")
	}
	for g := uint64(1); g <= 3; g++ {
		if err := s.AppendAssigns([]Assign{asg(g)}); err != nil {
			t.Fatalf("assign %d: %v", g, err)
		}
	}
	if err := s.AppendAssigns([]Assign{asg(3)}); err == nil {
		t.Fatal("duplicate assign accepted")
	}
	if got := s.AssignFrontier(); got != 3 {
		t.Fatalf("assign frontier = %d, want 3", got)
	}
	if got := s.Frontier(); got != 0 {
		t.Fatalf("commit frontier = %d, want 0 (no commits yet)", got)
	}

	// Commits release under the logged assigns, then extend past them: the
	// commit record subsumes the assignment.
	for g := uint64(1); g <= 4; g++ {
		r := rec(g)
		if err := s.AppendCommits([]Record{r}); err != nil {
			t.Fatalf("commit %d: %v", g, err)
		}
	}
	if got := s.Frontier(); got != 4 {
		t.Fatalf("commit frontier = %d, want 4", got)
	}
	if got := s.AssignFrontier(); got != 4 {
		t.Fatalf("assign frontier = %d, want 4 (commit subsumes assignment)", got)
	}
	// The assign chain resumes above the subsumed range.
	if err := s.AppendAssigns([]Assign{asg(5)}); err != nil {
		t.Fatalf("assign 5 after commits: %v", err)
	}

	// AppendCommits rejects assign-kind records (API misuse guard).
	bad := Record{Kind: KindAssign, GSN: 5, ID: asg(5).ID}
	if err := s.AppendCommits([]Record{bad}); err == nil {
		t.Fatal("AppendCommits accepted an assign-kind record")
	}
}

// TestStoreRecoverAssigns is the finding-1 regression at the store layer:
// assignments logged before a crash must come back, both from the log and —
// after compaction — from the snapshot cell, minus whatever commits
// subsumed.
func TestStoreRecoverAssigns(t *testing.T) {
	m := NewMemMedia()
	s := NewStore(m)
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	// Interleave: assigns 1..5 durable, commits released for 1..2 only.
	for g := uint64(1); g <= 5; g++ {
		if err := s.AppendAssigns([]Assign{asg(g)}); err != nil {
			t.Fatal(err)
		}
	}
	for g := uint64(1); g <= 2; g++ {
		r := rec(g)
		if err := s.AppendCommits([]Record{r}); err != nil {
			t.Fatal(err)
		}
	}

	// Crash: a fresh store over the same media.
	s2 := NewStore(m)
	out, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if out.CSN != 2 || len(out.Records) != 2 {
		t.Fatalf("recovered CSN %d with %d records, want 2/2", out.CSN, len(out.Records))
	}
	if len(out.Assigns) != 3 {
		t.Fatalf("recovered assigns %+v, want gsns 3,4,5", out.Assigns)
	}
	for i, a := range out.Assigns {
		if want := asg(uint64(3 + i)); a != want {
			t.Fatalf("assign[%d] = %+v, want %+v", i, a, want)
		}
	}
	if got := s2.AssignFrontier(); got != 5 {
		t.Fatalf("recovered assign frontier = %d, want 5", got)
	}
	if got := s2.Frontier(); got != 2 {
		t.Fatalf("recovered commit frontier = %d, want 2", got)
	}

	// Compact at CSN 2 carrying the outstanding table; the cell alone must
	// reproduce it after another crash.
	snap := Snapshot{CSN: 2, App: []byte("s"), Assigns: []Assign{asg(3), asg(4), asg(5)}}
	if err := s2.SaveSnapshot(&snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s3 := NewStore(m)
	out3, err := s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if out3.CSN != 2 || len(out3.Assigns) != 3 || out3.Assigns[0] != asg(3) || out3.Assigns[2] != asg(5) {
		t.Fatalf("post-compaction recovery: CSN %d assigns %+v", out3.CSN, out3.Assigns)
	}
	if got := s3.AssignFrontier(); got != 5 {
		t.Fatalf("post-compaction assign frontier = %d, want 5", got)
	}
	// The assign chain continues durably across the compaction boundary.
	if err := s3.AppendAssigns([]Assign{asg(6)}); err != nil {
		t.Fatalf("assign 6 after compaction recovery: %v", err)
	}
}

// TestStoreSnapshotMustCoverAssignFrontier: a snapshot that would reset the
// log while silently dropping durable assign records is a frontier
// regression and must be refused.
func TestStoreSnapshotMustCoverAssignFrontier(t *testing.T) {
	s := NewStore(NewMemMedia())
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	for g := uint64(1); g <= 3; g++ {
		if err := s.AppendAssigns([]Assign{asg(g)}); err != nil {
			t.Fatal(err)
		}
	}
	// Covers only up to 1 < assign frontier 3: refused.
	if err := s.SaveSnapshot(&Snapshot{CSN: 0, Assigns: []Assign{asg(1)}}); err == nil {
		t.Fatal("snapshot dropping durable assigns accepted")
	}
	// Non-contiguous table: refused.
	if err := s.SaveSnapshot(&Snapshot{CSN: 0, Assigns: []Assign{asg(1), asg(3), asg(2)}}); err == nil {
		t.Fatal("non-contiguous snapshot assigns accepted")
	}
	// Full cover: accepted.
	if err := s.SaveSnapshot(&Snapshot{CSN: 0, Assigns: []Assign{asg(1), asg(2), asg(3)}}); err != nil {
		t.Fatalf("covering snapshot refused: %v", err)
	}
	if got := s.AssignFrontier(); got != 3 {
		t.Fatalf("assign frontier after snapshot = %d, want 3", got)
	}
}

// TestStoreRecoverStopsAtAssignGap: replay treats a non-contiguous assign
// record like any other untrustworthy continuation — it stops at the
// preceding boundary instead of recovering a frontier with holes.
func TestStoreRecoverStopsAtAssignGap(t *testing.T) {
	m := NewMemMedia()
	var img []byte
	r1 := Record{Kind: KindAssign, GSN: 1, ID: asg(1).ID}
	r3 := Record{Kind: KindAssign, GSN: 3, ID: asg(3).ID}
	img = AppendRecord(img, &r1)
	img = AppendRecord(img, &r3) // gap: 2 missing
	m.SetLog(img)

	s := NewStore(m)
	out, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assigns) != 1 || out.Assigns[0].GSN != 1 {
		t.Fatalf("recovered assigns %+v, want only gsn 1", out.Assigns)
	}
	if got := s.AssignFrontier(); got != 1 {
		t.Fatalf("assign frontier = %d, want 1", got)
	}
}
