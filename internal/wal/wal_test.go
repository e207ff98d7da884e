package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"aqua/internal/consistency"
	"aqua/internal/node"
)

func rec(gsn uint64) Record {
	return Record{
		GSN:     gsn,
		ID:      consistency.RequestID{Client: node.ID(fmt.Sprintf("c%02d", gsn%3)), Seq: gsn},
		Method:  "Set",
		Payload: []byte(fmt.Sprintf("doc%d=%d", gsn%3, gsn)),
		Dup:     gsn%5 == 0,
	}
}

func logImage(n int) []byte {
	var b []byte
	for g := uint64(1); g <= uint64(n); g++ {
		r := rec(g)
		b = AppendRecord(b, &r)
	}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	want := rec(7)
	b := AppendRecord(nil, &want)
	got, n, err := DecodeRecord(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(b))
	}
	if got.GSN != want.GSN || got.ID != want.ID || got.Method != want.Method ||
		!bytes.Equal(got.Payload, want.Payload) || got.Dup != want.Dup {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := Snapshot{
		CSN: 42,
		App: []byte("state"),
		RecentIDs: []consistency.RequestID{
			{Client: "c00", Seq: 41}, {Client: "c01", Seq: 42},
		},
	}
	b := AppendSnapshot(nil, &want)
	got, n, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(b))
	}
	if got.CSN != want.CSN || !bytes.Equal(got.App, want.App) || len(got.RecentIDs) != 2 ||
		got.RecentIDs[0] != want.RecentIDs[0] || got.RecentIDs[1] != want.RecentIDs[1] {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
}

// TestReplayTruncationEveryByte is the crash-point sweep: a crash may tear
// the log at any byte boundary. For every prefix length the replay must
// recover exactly the records wholly contained in the prefix and report the
// partial final record as torn.
func TestReplayTruncationEveryByte(t *testing.T) {
	const records = 6
	// The image is what one six-record run leaves on the media: a run is
	// its records' frames back to back, so a crash inside the single append
	// can cut it at any of these bytes.
	m := NewMemMedia()
	run := make([]Record, records)
	for i := range run {
		run[i] = rec(uint64(i + 1))
	}
	if err := NewStore(m).AppendCommits(run); err != nil {
		t.Fatalf("append run: %v", err)
	}
	full := m.Log()
	if !bytes.Equal(full, logImage(records)) {
		t.Fatal("a run's image differs from its records appended one by one (frame format changed?)")
	}
	// Record boundaries.
	var bounds []int
	off := 0
	for off < len(full) {
		_, n, err := DecodeRecord(full[off:])
		if err != nil {
			t.Fatalf("full log invalid at %d: %v", off, err)
		}
		off += n
		bounds = append(bounds, off)
	}
	for cut := 0; cut <= len(full); cut++ {
		var got []Record
		valid, torn, err := Replay(full[:cut], func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: replay error %v", cut, err)
		}
		wantRecs := 0
		wantValid := 0
		for i, b := range bounds {
			if b <= cut {
				wantRecs = i + 1
				wantValid = b
			}
		}
		if len(got) != wantRecs || valid != wantValid {
			t.Fatalf("cut=%d: recovered %d records (valid=%d), want %d (valid=%d)",
				cut, len(got), valid, wantRecs, wantValid)
		}
		if wantTorn := cut != wantValid; torn != wantTorn {
			t.Fatalf("cut=%d: torn=%t want %t", cut, torn, wantTorn)
		}
		for i, r := range got {
			if r.GSN != uint64(i+1) {
				t.Fatalf("cut=%d: record %d has gsn %d", cut, i, r.GSN)
			}
		}
	}
}

// TestReplayBitFlipStopsAtBoundary flips every byte of a log in turn; replay
// must stop at (or before) the corrupted record's boundary and never emit a
// record that differs from the original sequence.
func TestReplayBitFlipStopsAtBoundary(t *testing.T) {
	const records = 4
	full := logImage(records)
	for pos := 0; pos < len(full); pos++ {
		img := append([]byte(nil), full...)
		img[pos] ^= 0x41
		var got []Record
		valid, _, err := Replay(img, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("pos=%d: replay error %v", pos, err)
		}
		if valid > len(full) {
			t.Fatalf("pos=%d: valid %d beyond image", pos, valid)
		}
		for i, r := range got {
			want := rec(uint64(i + 1))
			if r.GSN != want.GSN || r.ID != want.ID || r.Method != want.Method ||
				!bytes.Equal(r.Payload, want.Payload) || r.Dup != want.Dup {
				t.Fatalf("pos=%d: replay emitted corrupted record %d: %+v", pos, i, r)
			}
		}
		// Determinism: replaying the same corrupt image twice agrees.
		valid2, _, _ := Replay(img, nil)
		if valid2 != valid {
			t.Fatalf("pos=%d: replay nondeterministic: %d then %d", pos, valid, valid2)
		}
	}
}

func TestStoreAppendRecoverCompact(t *testing.T) {
	m := NewMemMedia()
	s := NewStore(m)
	for g := uint64(1); g <= 10; g++ {
		r := rec(g)
		if err := s.AppendCommits([]Record{r}); err != nil {
			t.Fatalf("append %d: %v", g, err)
		}
	}
	if s.Frontier() != 10 || s.records != 10 {
		t.Fatalf("frontier=%d records=%d", s.Frontier(), s.records)
	}
	// Compact at 10, then log two more.
	if err := s.SaveSnapshot(&Snapshot{CSN: 10, App: []byte("app@10"),
		RecentIDs: []consistency.RequestID{{Client: "c01", Seq: 10}}}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for g := uint64(11); g <= 12; g++ {
		r := rec(g)
		if err := s.AppendCommits([]Record{r}); err != nil {
			t.Fatalf("append %d: %v", g, err)
		}
	}

	// A fresh store over the same media recovers snapshot + suffix.
	s2 := NewStore(m)
	got, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got.CSN != 12 || got.Snapshot.CSN != 10 || string(got.Snapshot.App) != "app@10" {
		t.Fatalf("recovered csn=%d snapshot=%+v", got.CSN, got.Snapshot)
	}
	if len(got.Records) != 2 || got.Records[0].GSN != 11 || got.Records[1].GSN != 12 {
		t.Fatalf("recovered records %+v", got.Records)
	}
	if got.Torn {
		t.Fatal("clean log reported torn")
	}
	// Appends resume above the recovered frontier.
	r := rec(13)
	if err := s2.AppendCommits([]Record{r}); err != nil {
		t.Fatalf("append after recover: %v", err)
	}
	bad := rec(15)
	if err := s2.AppendCommits([]Record{bad}); err == nil {
		t.Fatal("gap append accepted")
	}
}

func TestStoreRecoverTornTail(t *testing.T) {
	m := NewMemMedia()
	s := NewStore(m)
	for g := uint64(1); g <= 5; g++ {
		r := rec(g)
		if err := s.AppendCommits([]Record{r}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Tear the final record mid-frame.
	img := m.Log()
	m.SetLog(img[:len(img)-3])
	got, err := NewStore(m).Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got.CSN != 4 || !got.Torn {
		t.Fatalf("recovered csn=%d torn=%t, want 4/true", got.CSN, got.Torn)
	}
}

// TestStoreFailAfterBoundarySweep drives the crash-point injection through
// the store: a four-record run — commits, then assigns — is torn at every
// byte boundary inside its single append. The failed append must move
// nothing in the writing store, and a store recovering from the torn media
// must stand at exactly the run's whole-record prefix, with Torn and
// TailBytes describing the cut and both frontiers consistent with what it
// returned — never anything else, and never an error.
func TestStoreFailAfterBoundarySweep(t *testing.T) {
	const base, runLen = 4, 4
	seed := func(m *MemMedia) *Store {
		s := NewStore(m)
		for g := uint64(1); g <= base; g++ {
			if err := s.AppendCommits([]Record{rec(g)}); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		return s
	}
	var commits []Record
	var assigns []Assign
	for g := uint64(base + 1); g <= base+runLen; g++ {
		commits = append(commits, rec(g))
		assigns = append(assigns, asg(g))
	}
	kinds := []struct {
		name   string
		append func(s *Store) error
	}{
		{"commits", func(s *Store) error { return s.AppendCommits(commits) }},
		{"assigns", func(s *Store) error { return s.AppendAssigns(assigns) }},
	}
	for _, k := range kinds {
		// The untorn run's image gives the record boundaries inside it.
		clean := NewMemMedia()
		cs := seed(clean)
		baseLen := len(clean.Log())
		if err := k.append(cs); err != nil {
			t.Fatalf("%s: clean run: %v", k.name, err)
		}
		if _, _, _, syncs := cs.Stats(); syncs != base+1 {
			t.Fatalf("%s: %d barriers for %d single appends and one run, want %d", k.name, syncs, base, base+1)
		}
		full := clean.Log()[baseLen:]
		var bounds []int // offsets inside the run where a record ends
		for off := 0; off < len(full); {
			_, n, err := DecodeRecord(full[off:])
			if err != nil {
				t.Fatalf("%s: run image invalid at %d: %v", k.name, off, err)
			}
			off += n
			bounds = append(bounds, off)
		}

		for extra := 0; extra <= len(full); extra++ {
			m := NewMemMedia()
			s := seed(m)
			m.FailAfter(baseLen + extra)
			err := k.append(s)
			m.FailAfter(-1)
			if extra < len(full) {
				if !errors.Is(err, ErrTornWrite) {
					t.Fatalf("%s extra=%d: torn append returned %v", k.name, extra, err)
				}
				// A failed run exposes none of itself.
				appends, _, _, _ := s.Stats()
				if s.Frontier() != base || s.AssignFrontier() != base || appends != base {
					t.Fatalf("%s extra=%d: failed run moved the store: frontier=%d assign=%d appends=%d",
						k.name, extra, s.Frontier(), s.AssignFrontier(), appends)
				}
			} else if err != nil {
				t.Fatalf("%s: whole run refused: %v", k.name, err)
			}

			whole, wholeBytes := 0, 0
			for i, b := range bounds {
				if b <= extra {
					whole, wholeBytes = i+1, b
				}
			}
			rs := NewStore(m)
			got, err := rs.Recover()
			if err != nil {
				t.Fatalf("%s extra=%d: recover: %v", k.name, extra, err)
			}
			wantCSN, wantAssign := uint64(base), uint64(base+whole)
			if k.name == "commits" {
				wantCSN = wantAssign
			}
			if got.CSN != wantCSN || rs.Frontier() != wantCSN || rs.AssignFrontier() != wantAssign {
				t.Fatalf("%s extra=%d: recovered csn=%d frontier=%d assign=%d, want %d/%d/%d",
					k.name, extra, got.CSN, rs.Frontier(), rs.AssignFrontier(), wantCSN, wantCSN, wantAssign)
			}
			if len(got.Records) != int(wantCSN) || len(got.Assigns) != int(wantAssign-wantCSN) {
				t.Fatalf("%s extra=%d: recovered %d records + %d assigns", k.name, extra, len(got.Records), len(got.Assigns))
			}
			if tail := extra - wholeBytes; got.TailBytes != tail || got.Torn != (tail > 0) {
				t.Fatalf("%s extra=%d: tail=%d torn=%t, want tail %d", k.name, extra, got.TailBytes, got.Torn, tail)
			}
		}
	}
}

// TestStoreRefusesAppendBehindUnreplayableTail is the store half of the
// torn-tail fix: recovery cannot cut the bytes replay stopped at, so
// appending behind them would lose every later record at the next
// recovery. The store refuses until a snapshot resets the log.
func TestStoreRefusesAppendBehindUnreplayableTail(t *testing.T) {
	m := NewMemMedia()
	s := NewStore(m)
	if err := s.AppendCommits([]Record{rec(1), rec(2)}); err != nil {
		t.Fatalf("append: %v", err)
	}
	m.FailAfter(len(m.Log()) + 11) // mid-frame inside the next run
	if err := s.AppendCommits([]Record{rec(3), rec(4)}); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn append returned %v", err)
	}
	m.FailAfter(-1)

	s2 := NewStore(m)
	got, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got.CSN != 2 || !got.Torn || got.TailBytes != 11 {
		t.Fatalf("recovered csn=%d torn=%t tail=%d, want 2/true/11", got.CSN, got.Torn, got.TailBytes)
	}
	if err := s2.AppendCommits([]Record{rec(3)}); err == nil {
		t.Fatal("append behind an unreplayable tail accepted")
	}
	if err := s2.AppendAssigns([]Assign{asg(3)}); err == nil {
		t.Fatal("assign append behind an unreplayable tail accepted")
	}
	// Folding the recovered state into a fresh cell resets the log; the
	// next incarnation's records are then reachable.
	if err := s2.SaveSnapshot(&Snapshot{CSN: 2, App: []byte("app@2")}); err != nil {
		t.Fatalf("fold: %v", err)
	}
	if err := s2.AppendCommits([]Record{rec(3), rec(4), rec(5)}); err != nil {
		t.Fatalf("append after fold: %v", err)
	}
	got, err = NewStore(m).Recover()
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if got.CSN != 5 || got.TailBytes != 0 || got.Torn {
		t.Fatalf("second recovery csn=%d tail=%d torn=%t, want 5/0/false", got.CSN, got.TailBytes, got.Torn)
	}
}

// countingMedia counts log appends and can refuse them.
type countingMedia struct {
	*MemMedia
	appends int
	fail    bool
}

func (m *countingMedia) AppendLog(b []byte) error {
	if m.fail {
		return errors.New("media: injected append failure")
	}
	m.appends++
	return m.MemMedia.AppendLog(b)
}

// TestStoreRunIsOneMediaAppend pins the group commit: however long the run,
// the media sees one append (one barrier), the record counter still counts
// records, and a run the store rejects or the media fails moves nothing.
func TestStoreRunIsOneMediaAppend(t *testing.T) {
	m := &countingMedia{MemMedia: NewMemMedia()}
	s := NewStore(m)
	var commits []Record
	var assigns []Assign
	for g := uint64(1); g <= 64; g++ {
		commits = append(commits, rec(g))
		assigns = append(assigns, asg(64+g))
	}
	if err := s.AppendCommits(commits); err != nil {
		t.Fatalf("commit run: %v", err)
	}
	if err := s.AppendAssigns(assigns); err != nil {
		t.Fatalf("assign run: %v", err)
	}
	appends, appendBytes, _, syncs := s.Stats()
	if m.appends != 2 || syncs != 2 || appends != 128 || int(appendBytes) != len(m.Log()) {
		t.Fatalf("media appends=%d syncs=%d records=%d bytes=%d (log %d), want 2/2/128/log",
			m.appends, syncs, appends, appendBytes, len(m.Log()))
	}
	if s.Frontier() != 64 || s.AssignFrontier() != 128 || s.LogBytes() != len(m.Log()) {
		t.Fatalf("frontier=%d assign=%d logBytes=%d", s.Frontier(), s.AssignFrontier(), s.LogBytes())
	}
	if err := s.AppendCommits(nil); err != nil || m.appends != 2 {
		t.Fatalf("empty run: err=%v, media appends=%d", err, m.appends)
	}

	// A gap anywhere inside a run rejects the whole run before the media
	// sees a byte of it.
	before := len(m.Log())
	if err := s.AppendCommits([]Record{rec(65), rec(67)}); err == nil {
		t.Fatal("run with a gap accepted")
	}
	if err := s.AppendAssigns([]Assign{asg(129), asg(129)}); err == nil {
		t.Fatal("assign run with a repeat accepted")
	}
	// And a media failure leaves frontiers and counters where they were.
	m.fail = true
	if err := s.AppendCommits([]Record{rec(65), rec(66)}); err == nil {
		t.Fatal("failed media append reported success")
	}
	if a, _, _, _ := s.Stats(); a != 128 || s.Frontier() != 64 || len(m.Log()) != before || m.appends != 2 {
		t.Fatalf("failed runs moved the store: records=%d frontier=%d log=%d→%d appends=%d",
			a, s.Frontier(), before, len(m.Log()), m.appends)
	}
}

// TestCompactionRule pins when the log is folded. An explicit threshold is
// a plain record count, exactly as before. The default rule additionally
// waits until the log outweighs the cell it would replace, and both sizes
// survive recovery, so a restarted replica neither compacts early nor
// forgets that it is due.
func TestCompactionRule(t *testing.T) {
	fill := func(s *Store, from, n uint64) {
		t.Helper()
		run := make([]Record, 0, n)
		for g := from; g < from+n; g++ {
			run = append(run, rec(g))
		}
		if err := s.AppendCommits(run); err != nil {
			t.Fatalf("append: %v", err)
		}
	}

	// Explicit: due at exactly that many records, whatever the sizes.
	m := NewMemMedia()
	s := NewStore(m)
	if err := s.SaveSnapshot(&Snapshot{App: make([]byte, 1<<20)}); err != nil {
		t.Fatal(err)
	}
	fill(s, 1, 7)
	if s.CompactionDue(8) {
		t.Fatal("explicit threshold 8 due at 7 records")
	}
	fill(s, 8, 1)
	if !s.CompactionDue(8) {
		t.Fatal("explicit threshold 8 not due at 8 records")
	}

	// Default with no cell yet: the record floor alone.
	m = NewMemMedia()
	s = NewStore(m)
	fill(s, 1, compactRecords-1)
	if s.CompactionDue(0) {
		t.Fatalf("default rule due at %d records", compactRecords-1)
	}
	fill(s, compactRecords, 1)
	if !s.CompactionDue(0) {
		t.Fatalf("default rule not due at %d records with no cell to outweigh", compactRecords)
	}

	// Default with a cell larger than 256 records of log: not before the
	// log has grown to the cell's size.
	cell := Snapshot{CSN: compactRecords, App: make([]byte, 4*len(m.Log()))}
	if err := s.SaveSnapshot(&cell); err != nil {
		t.Fatal(err)
	}
	if s.LogBytes() != 0 || s.cellBytes != len(m.snapshot) {
		t.Fatalf("after snapshot: logBytes=%d cellBytes=%d (cell %d)", s.LogBytes(), s.cellBytes, len(m.snapshot))
	}
	heldByBytes := false // past the record floor, still under the cell's size
	for next := uint64(compactRecords + 1); len(m.Log()) < len(m.snapshot); next += 64 {
		if s.CompactionDue(0) {
			t.Fatalf("default rule due at %d log bytes under a %d-byte cell", len(m.Log()), len(m.snapshot))
		}
		heldByBytes = heldByBytes || s.records >= compactRecords
		fill(s, next, 64)
	}
	if !heldByBytes || !s.CompactionDue(0) {
		t.Fatalf("default rule: heldByBytes=%t, due=%t at %d records, %d log bytes, %d-byte cell",
			heldByBytes, s.CompactionDue(0), s.records, len(m.Log()), len(m.snapshot))
	}

	// Both sizes, and so the verdict, survive recovery.
	s2 := NewStore(m)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if s2.LogBytes() != s.LogBytes() || s2.cellBytes != s.cellBytes || s2.records != s.records || !s2.CompactionDue(0) {
		t.Fatalf("recovered logBytes=%d cellBytes=%d records=%d, want %d/%d/%d",
			s2.LogBytes(), s2.cellBytes, s2.records, s.LogBytes(), s.cellBytes, s.records)
	}
	if err := s2.SaveSnapshot(&Snapshot{CSN: s2.Frontier(), App: cell.App}); err != nil {
		t.Fatal(err)
	}
	s3 := NewStore(m)
	if _, err := s3.Recover(); err != nil {
		t.Fatal(err)
	}
	if s3.CompactionDue(0) || s3.LogBytes() != 0 || s3.cellBytes != len(m.snapshot) {
		t.Fatalf("after compaction + recovery: due=%t logBytes=%d cellBytes=%d", s3.CompactionDue(0), s3.LogBytes(), s3.cellBytes)
	}
}

func TestStoreSnapshotCellCorruption(t *testing.T) {
	m := NewMemMedia()
	s := NewStore(m)
	r := rec(1)
	if err := s.AppendCommits([]Record{r}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.SaveSnapshot(&Snapshot{CSN: 1, App: []byte("x")}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	m.snapshot[len(m.snapshot)-1] ^= 0xff
	if _, err := NewStore(m).Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot cell recovered: err=%v", err)
	}
}

func TestRegistrySurvivesAndWipes(t *testing.T) {
	reg := NewRegistry()
	m := reg.Get("p01")
	r := rec(1)
	if err := NewStore(m).AppendCommits([]Record{r}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if got := reg.Get("p01"); got != m || len(got.Log()) == 0 {
		t.Fatal("registry did not return the surviving media")
	}
	reg.Wipe("p01")
	if got := reg.Get("p01"); len(got.Log()) != 0 {
		t.Fatal("wiped media still holds a log")
	}
}

func TestFileMediaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := NewFileMedia(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s := NewStore(m)
	for g := uint64(1); g <= 3; g++ {
		r := rec(g)
		if err := s.AppendCommits([]Record{r}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.SaveSnapshot(&Snapshot{CSN: 3, App: []byte("app@3")}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	r4 := rec(4)
	if err := s.AppendCommits([]Record{r4}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2, err := NewFileMedia(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	got, err := NewStore(m2).Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got.CSN != 4 || got.Snapshot.CSN != 3 || string(got.Snapshot.App) != "app@3" || len(got.Records) != 1 {
		t.Fatalf("recovered %+v", got)
	}
}
