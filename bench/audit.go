package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/sim"
	"aqua/internal/wal"
)

// The durability audit, by the "discard everything after the last sync"
// rule: killing a process leaves whatever the operating system still holds,
// so crash tests alone prove little about what was really on media when a
// client was told "done". Instead the wal.Media decorator journals every
// operation that returned nil — at that point FileMedia has fsynced it —
// and at each sampled client acknowledgement the benchmark notes how long
// every primary's journal was. After the run each journal prefix is
// replayed through wal.Store.Recover on a MemMedia; the acknowledged update
// must be recoverable (as a commit or an assignment record, or inside the
// snapshot cell) on a majority of the primary group. Anything written after
// the noted position is discarded, exactly as a power cut would.

const (
	opAppend uint8 = iota + 1
	opSnapshot
	opReset
)

type shadowOp struct {
	kind uint8
	data []byte
}

// shadowMedia times a replica's media and journals its durable operations.
// The journal is guarded by mu because acknowledgement samples read its
// length from the client's goroutine.
type shadowMedia struct {
	inner wal.Media
	id    node.ID
	log   *nodeLog // nil: journal only, no timing (the audit self-test)

	mu  sync.Mutex
	ops []shadowOp
}

var _ wal.Media = (*shadowMedia)(nil)

func (s *shadowMedia) journal(kind uint8, data []byte) {
	s.mu.Lock()
	s.ops = append(s.ops, shadowOp{kind: kind, data: data})
	s.mu.Unlock()
}

func (s *shadowMedia) position() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ops)
}

func (s *shadowMedia) timed(name string, t0, t1 time.Time) {
	if s.log == nil || !s.log.tr.armed.Load() {
		return
	}
	s.log.walOps = append(s.log.walOps, opSpan{name: name, start: s.log.at(t0), end: s.log.at(t1)})
	s.log.walBusyNS += int64(t1.Sub(t0))
}

func (s *shadowMedia) AppendLog(b []byte) error {
	t0 := time.Now()
	err := s.inner.AppendLog(b)
	t1 := time.Now()
	if err != nil {
		return err
	}
	s.journal(opAppend, append([]byte(nil), b...))
	s.timed("wal.append", t0, t1)
	if s.log != nil && s.log.tr.armed.Load() {
		s.log.walAppends++
		s.log.walBytes += uint64(len(b))
	}
	return nil
}

func (s *shadowMedia) StoreSnapshot(b []byte) error {
	t0 := time.Now()
	err := s.inner.StoreSnapshot(b)
	t1 := time.Now()
	if err != nil {
		return err
	}
	s.journal(opSnapshot, slimSnapshot(b))
	s.timed("wal.snapshot", t0, t1)
	return nil
}

func (s *shadowMedia) ResetLog() error {
	if err := s.inner.ResetLog(); err != nil {
		return err
	}
	s.journal(opReset, nil)
	return nil
}

func (s *shadowMedia) LoadSnapshot() ([]byte, error) { return s.inner.LoadSnapshot() }
func (s *shadowMedia) LoadLog() ([]byte, error)      { return s.inner.LoadLog() }
func (s *shadowMedia) Syncs() uint64                 { return s.inner.Syncs() }

// slimSnapshot re-encodes a snapshot cell without the application state:
// the audit needs the cell's commit frontier, recent-ID memo and assignment
// table, not a megabyte of key-value pairs per compaction.
func slimSnapshot(cell []byte) []byte {
	snap, n, err := wal.DecodeSnapshot(cell)
	if err != nil || n != len(cell) {
		return append([]byte(nil), cell...)
	}
	snap.App = nil
	return wal.AppendSnapshot(nil, &snap)
}

// auditSample is one acknowledged update and every primary journal's length
// at the moment the client saw the acknowledgement.
type auditSample struct {
	id  consistency.RequestID
	pos []int // indexed like the primaries slice given to auditShadows
}

func samplePositions(primaries []*shadowMedia) []int {
	pos := make([]int, len(primaries))
	for i, s := range primaries {
		pos[i] = s.position()
	}
	return pos
}

// sampleAck notes a sampled acknowledgement (client goroutine).
func (tr *tracer) sampleAck(id consistency.RequestID) {
	if len(tr.primaries) == 0 {
		return
	}
	s := auditSample{id: id, pos: samplePositions(tr.primaries)}
	tr.auditMu.Lock()
	tr.audits = append(tr.audits, s)
	tr.auditMu.Unlock()
}

// holds reports whether a recovered state carries the request.
func holds(rec *wal.Recovered, id consistency.RequestID) bool {
	for i := range rec.Records {
		if rec.Records[i].ID == id {
			return true
		}
	}
	for _, a := range rec.Assigns {
		if a.ID == id {
			return true
		}
	}
	for _, rid := range rec.Snapshot.RecentIDs {
		if rid == id {
			return true
		}
	}
	return false
}

// auditShadows replays every sampled journal prefix and returns how many
// acknowledgements it checked and the ones a majority could not recover.
func auditShadows(primaries []*shadowMedia, samples []auditSample) (checked int, violations []string) {
	if len(primaries) == 0 || len(samples) == 0 {
		return 0, nil
	}
	found := make([]int, len(samples))
	for pi, s := range primaries {
		order := make([]int, len(samples))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return samples[order[a]].pos[pi] < samples[order[b]].pos[pi] })

		var cell, log []byte
		applied := 0
		var rec wal.Recovered
		recAt := -1
		for _, si := range order {
			want := samples[si].pos[pi]
			for ; applied < want && applied < len(s.ops); applied++ {
				switch op := s.ops[applied]; op.kind {
				case opAppend:
					log = append(log, op.data...)
				case opSnapshot:
					cell = op.data
				case opReset:
					log = log[:0]
				}
			}
			if recAt != applied {
				m := wal.NewMemMedia()
				if cell != nil {
					_ = m.StoreSnapshot(cell) // MemMedia cannot fail
				}
				m.SetLog(log)
				// A recovery error means an unreadable cell: nothing is
				// provably held, which the majority count then reflects.
				rec, _ = wal.NewStore(m).Recover()
				recAt = applied
			}
			if holds(&rec, samples[si].id) {
				found[si]++
			}
		}
	}
	need := len(primaries)/2 + 1
	for i, n := range found {
		checked++
		if n < need {
			violations = append(violations, fmt.Sprintf(
				"acknowledged update %s/%d recoverable on %d of %d primaries (majority is %d)",
				samples[i].id.Client, samples[i].id.Seq, n, len(primaries), need))
		}
	}
	return checked, violations
}

// audit runs the durability audit over the traced run's journals.
func (tr *tracer) audit() (int, []string) {
	return auditShadows(tr.primaries, tr.audits)
}

// lyingMedia acknowledges appends it never forwards: the fault the audit
// exists to catch. It sits above the shadow, so the journal — like real
// media after a power cut — never sees the swallowed records.
type lyingMedia struct {
	wal.Media
	honest int // forward this many appends, swallow the rest
	seen   int
}

func (l *lyingMedia) AppendLog(b []byte) error {
	l.seen++
	if l.seen > l.honest {
		return nil
	}
	return l.Media.AppendLog(b)
}

// auditSelfTest proves the audit can fail: a small virtual-time deployment
// runs once over honest media (the audit must pass, having checked
// something) and once with two of three primaries lying (it must not).
func auditSelfTest() error {
	run := func(lie bool) (int, []string, error) {
		s := sim.NewScheduler(7)
		rt := sim.NewRuntime(s)
		var shadows []*shadowMedia
		var samples []auditSample
		svc := core.ServiceConfig{
			Primaries:        3,
			LazyInterval:     lazyInterval,
			Group:            group.DefaultConfig(),
			NewApp:           func() app.Application { return apps.NewKVStore() },
			Durable:          true,
			ReplicatedAssign: true,
			NewMedia: func(id node.ID) (wal.Media, error) {
				sm := &shadowMedia{inner: wal.NewMemMedia(), id: id}
				shadows = append(shadows, sm)
				if lie && id != "p00" {
					return &lyingMedia{Media: sm, honest: 6}, nil
				}
				return sm, nil
			},
		}
		const updates = 40
		acked := 0
		cc := core.ClientConfig{
			ID:      "c00",
			Spec:    qos.Spec{Deadline: readDeadline, MinProb: readMinProb},
			Methods: qos.NewMethods("Get"),
			Driver: func(ctx node.Context, gw *client.Gateway) {
				var next func(k int)
				next = func(k int) {
					if k == updates {
						return
					}
					gw.Invoke("Set", []byte(fmt.Sprintf("k=%d", k)), func(res client.Result) {
						if res.Err == "" {
							acked++
							samples = append(samples, auditSample{
								id:  consistency.RequestID{Client: "c00", Seq: uint64(k + 1)},
								pos: samplePositions(shadows),
							})
						}
						next(k + 1)
					})
				}
				ctx.Post(time.Second, func() { next(0) })
			},
		}
		if _, err := core.Deploy(rt, svc, []core.ClientConfig{cc}); err != nil {
			return 0, nil, err
		}
		rt.Start()
		s.RunFor(30 * time.Second)
		if acked != updates {
			return 0, nil, fmt.Errorf("audit self-test: %d of %d updates acknowledged", acked, updates)
		}
		checked, v := auditShadows(shadows, samples)
		return checked, v, nil
	}
	checked, v, err := run(false)
	if err != nil {
		return err
	}
	if checked == 0 || len(v) > 0 {
		return fmt.Errorf("audit self-test: honest media: checked %d, violations %v", checked, v)
	}
	if _, v, err = run(true); err != nil {
		return err
	}
	if len(v) == 0 {
		return fmt.Errorf("audit self-test: two lying primaries went unnoticed")
	}
	return nil
}
