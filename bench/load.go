package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/node"
)

// The load generator. Each client gateway is driven from inside its own node
// (clientNode hands over the node context), so the generator adds no
// goroutine of its own: generator goroutines == client nodes, which
// the deployment caps at nproc. Everything a client issues comes from two
// rand streams derived from -seed; the program under test sees only the
// generated requests.

// op is one generated request: a read or an update of one key of the
// issuing client's partition.
type op struct {
	read bool
	key  int
}

// stream is one client's seeded request stream: the read/update coin and
// the key from one generator, the Poisson arrival gaps from another, so the
// op sequence does not depend on which phases drew gaps.
type stream struct {
	ops        *rand.Rand
	gaps       *rand.Rand
	updateFrac float64
	keys       int
}

func newStream(seed int64, clientIdx int, updateFrac float64, keys int) *stream {
	base := seed*1_000_003 + int64(clientIdx)*7919
	return &stream{
		ops:        rand.New(rand.NewSource(base + 1)),
		gaps:       rand.New(rand.NewSource(base + 2)),
		updateFrac: updateFrac,
		keys:       keys,
	}
}

func (s *stream) nextOp() op {
	return op{read: s.ops.Float64() >= s.updateFrac, key: s.ops.Intn(s.keys)}
}

// nextGap draws an exponential inter-arrival gap for the given rate (1/s).
func (s *stream) nextGap(rate float64) time.Duration {
	u := s.gaps.Float64()
	for u <= 0 {
		u = s.gaps.Float64()
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}

// streamDigest hashes the first n ops and gaps of a client's stream — what
// the smoke test compares across seeds.
func streamDigest(seed int64, clientIdx int, w *workloadSpec, n int) uint64 {
	s := newStream(seed, clientIdx, w.UpdateFrac, kvKeys/2)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		o := s.nextOp()
		fmt.Fprintf(h, "%t/%d/%d;", o.read, o.key, s.nextGap(1000))
	}
	return h.Sum64()
}

// Values are "<seq, 10 digits>:<key>:" padded with 'x' to kvValueBytes. The
// sequence is per key and only its owning client writes it, so a read reply
// alone tells whether the client's acknowledged writes are reflected.
const valueSeqDigits = 10

func appendValue(dst []byte, key string, seq uint32) []byte {
	start := len(dst)
	var num [valueSeqDigits]byte
	for i, v := valueSeqDigits-1, seq; i >= 0; i, v = i-1, v/10 {
		num[i] = byte('0' + v%10)
	}
	dst = append(dst, num[:]...)
	dst = append(dst, ':')
	dst = append(dst, key...)
	dst = append(dst, ':')
	for len(dst)-start < kvValueBytes {
		dst = append(dst, 'x')
	}
	return dst
}

// parseValue checks a read reply's shape and returns the sequence it holds.
// An empty payload is a key never written: sequence 0.
func parseValue(p []byte, key string) (uint32, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if len(p) != kvValueBytes || p[valueSeqDigits] != ':' {
		return 0, fmt.Errorf("malformed value (%d bytes)", len(p))
	}
	seq, err := strconv.ParseUint(string(p[:valueSeqDigits]), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("malformed value sequence %q", p[:valueSeqDigits])
	}
	rest := p[valueSeqDigits+1:]
	if !bytes.HasPrefix(rest, []byte(key)) || rest[len(key)] != ':' {
		return 0, fmt.Errorf("value belongs to another key")
	}
	return uint32(seq), nil
}

// checkUpdateReply verifies the KV store's "v<N>" update reply. An empty
// reply is legal too: a primary whose queued update was subsumed by a state
// snapshot it installed meanwhile acknowledges it without a result.
func checkUpdateReply(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if len(p) < 2 || p[0] != 'v' {
		return fmt.Errorf("malformed update reply %q", p)
	}
	if _, err := strconv.ParseUint(string(p[1:]), 10, 64); err != nil {
		return fmt.Errorf("malformed update reply %q", p)
	}
	return nil
}

type phaseKind int

const (
	phaseCount  phaseKind = iota // issue a fixed number of ops, window outstanding
	phaseOpen                    // Poisson arrivals at rate for dur, timed from due time
	phaseClosed                  // keep window outstanding for dur
)

// phase is one client's share of a run phase. The main goroutine copies the
// phase's shape for each client, hands it to the client node, waits on done,
// then reads res.
type phase struct {
	kind    phaseKind
	prefill bool          // phaseCount: write each of the client's keys once instead of drawing ops
	count   int           // phaseCount: ops to issue (prefill: set to the client's key count)
	rate    float64       // phaseOpen: this client's arrival rate, 1/s
	window  int           // max outstanding (phaseCount, phaseClosed)
	dur     time.Duration // phaseOpen, phaseClosed
	win     time.Duration // timed phases: samples are grouped into windows this long

	start, end  time.Time
	nextDue     time.Time
	issued      int
	outstanding int
	closed      bool

	res  phaseResult
	done chan struct{}
}

// calBins is the number of predicted-probability bins in the calibration
// table.
const calBins = 10

// calibration bins reads by the probability the model predicted for the set
// it chose (P_K(d)) and counts how many were in fact timely.
type calibration struct {
	n      [calBins]int
	pred   [calBins]float64
	timely [calBins]int
}

// add records one read; a negative prediction (untraced run) is ignored.
func (c *calibration) add(predicted float64, timely bool) {
	if predicted < 0 {
		return
	}
	b := int(predicted * calBins)
	if b >= calBins {
		b = calBins - 1
	}
	c.n[b]++
	c.pred[b] += predicted
	if timely {
		c.timely[b]++
	}
}

func (c *calibration) merge(o *calibration) {
	for b := 0; b < calBins; b++ {
		c.n[b] += o.n[b]
		c.pred[b] += o.pred[b]
		c.timely[b] += o.timely[b]
	}
}

// err is the count-weighted mean gap between predicted and observed
// timeliness over the bins.
func (c *calibration) err() float64 {
	var total, gap float64
	for b := 0; b < calBins; b++ {
		if c.n[b] == 0 {
			continue
		}
		d := (c.pred[b] - float64(c.timely[b])) / float64(c.n[b])
		if d < 0 {
			d = -d
		}
		gap += d * float64(c.n[b])
		total += float64(c.n[b])
	}
	return ratio(gap, total)
}

// phaseResult is what one client observed in one phase.
type phaseResult struct {
	attempted  int
	failed     int
	completed  int // completions inside [start, end)
	reads      int
	timely     int       // reads answered correctly within the deadline
	selected   int       // sum of client.Result.Selected over answered reads
	answered   int       // reads answered (denominator of selected)
	readMS     []float64 // latency samples, with the window each was due in
	readWin    []uint16
	updateMS   []float64
	updateWin  []uint16
	doneWin    []int // completions per window, by completion time
	readsWin   []int // reads attempted per window, by due time
	timelyWin  []int // of those, answered correctly within the deadline
	lateMS     []float64
	invokeUS   []float64
	violations []string
	elapsed    time.Duration
	cal        calibration
}

// bump increments counts[w], growing the slice as needed.
func bump(counts []int, w int) []int {
	for len(counts) <= w {
		counts = append(counts, 0)
	}
	counts[w]++
	return counts
}

func (r *phaseResult) violate(format string, args ...interface{}) {
	r.failed++
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// loadClient drives one client gateway. All fields are touched only from
// the client node's goroutine, except through phase.done hand-offs.
type loadClient struct {
	id    node.ID
	w     *workloadSpec
	st    *stream
	keys  []string
	wrote []uint32 // per key: last sequence written
	acked []uint32 // per key: highest sequence acknowledged
	pad   int      // payload capacity hint

	ctx node.Context
	gw  *client.Gateway
	ph  *phase

	// gwSeq mirrors the gateway's request numbering (it numbers invocations
	// from 1 in Invoke order, and only this driver invokes).
	gwSeq uint64
	// lastReadSeq is the gateway sequence of the last read issued; the
	// oracle recorder uses it to keep its closed-loop assumption honest.
	lastReadSeq uint64

	// Trace-only collaborators (nil on an untraced run).
	tr  *tracer
	sel *tracedSelector
	log *nodeLog
}

func newLoadClient(idx, nClients int, w *workloadSpec, seed int64) *loadClient {
	lc := &loadClient{id: node.ID(fmt.Sprintf("c%02d", idx)), w: w}
	for k := idx; k < kvKeys; k += nClients {
		lc.keys = append(lc.keys, fmt.Sprintf("k%04d", k))
	}
	lc.st = newStream(seed, idx, w.UpdateFrac, len(lc.keys))
	lc.wrote = make([]uint32, len(lc.keys))
	lc.acked = make([]uint32, len(lc.keys))
	lc.pad = len(lc.keys[0]) + 1 + kvValueBytes
	return lc
}

// begin starts a phase. Runs on the client node's goroutine.
func (lc *loadClient) begin(ph *phase) {
	lc.ph = ph
	if ph.prefill {
		ph.count = len(lc.keys)
	}
	ph.start = time.Now()
	ph.end = ph.start.Add(ph.dur)
	switch ph.kind {
	case phaseCount:
		lc.fill()
	case phaseClosed:
		lc.fill()
		lc.ctx.Post(ph.dur, lc.finish)
	case phaseOpen:
		ph.nextDue = ph.start.Add(lc.st.nextGap(ph.rate))
		lc.tick()
	}
}

// tick issues every arrival that is due and sleeps until the next one.
func (lc *loadClient) tick() {
	ph := lc.ph
	if ph.closed {
		return
	}
	now := time.Now()
	for !ph.nextDue.After(now) && ph.nextDue.Before(ph.end) {
		lc.issue(lc.st.nextOp(), ph.nextDue)
		ph.nextDue = ph.nextDue.Add(lc.st.nextGap(ph.rate))
	}
	if ph.nextDue.Before(ph.end) {
		lc.ctx.Post(time.Until(ph.nextDue), lc.tick)
		return
	}
	lc.ctx.Post(time.Until(ph.end), lc.finish)
}

// fill tops the outstanding window up (phaseCount, phaseClosed).
func (lc *loadClient) fill() {
	ph := lc.ph
	for !ph.closed && ph.outstanding < ph.window {
		switch {
		case ph.kind == phaseCount && ph.issued >= ph.count:
			return
		case ph.kind == phaseClosed && !time.Now().Before(ph.end):
			return
		}
		o := lc.st.nextOp()
		if ph.prefill {
			o = op{key: ph.issued}
		}
		lc.issue(o, time.Now())
	}
}

// finish ends a timed phase: stop issuing, give stragglers up to a second,
// then count whatever is still unanswered as failed.
func (lc *loadClient) finish() {
	ph := lc.ph
	if ph.closed {
		return
	}
	if ph.outstanding > 0 && time.Since(ph.end) < time.Second {
		lc.ctx.Post(5*time.Millisecond, lc.finish)
		return
	}
	for i := 0; i < ph.outstanding; i++ {
		ph.res.violate("request unanswered 1s after the phase ended")
	}
	lc.closePhase()
}

func (lc *loadClient) closePhase() {
	ph := lc.ph
	ph.closed = true
	ph.res.elapsed = time.Since(ph.start)
	close(ph.done)
}

// issue invokes one op. due is when the op was scheduled to start; its
// latency runs from there, so generator stalls count against the system's
// clients, not for them.
func (lc *loadClient) issue(o op, due time.Time) {
	ph := lc.ph
	key := lc.keys[o.key]
	lc.gwSeq++
	gwSeq := lc.gwSeq
	ph.issued++
	ph.outstanding++
	ph.res.attempted++

	var payload []byte
	method := "Get"
	var wroteSeq, need uint32
	if o.read {
		payload = []byte(key)
		need = lc.acked[o.key]
		ph.res.reads++
		if ph.win > 0 {
			ph.res.readsWin = bump(ph.res.readsWin, int(due.Sub(ph.start)/ph.win))
		}
		lc.lastReadSeq = gwSeq
	} else {
		method = "Set"
		lc.wrote[o.key]++
		wroteSeq = lc.wrote[o.key]
		payload = make([]byte, 0, lc.pad)
		payload = append(payload, key...)
		payload = append(payload, '=')
		payload = appendValue(payload, key, wroteSeq)
	}

	sampled := lc.tr != nil && lc.tr.armed.Load() && gwSeq%traceSampleEvery == 0
	t0 := time.Now()
	ph.res.lateMS = append(ph.res.lateMS, float64(t0.Sub(due))/1e6)
	predicted := -1.0
	lc.gw.Invoke(method, payload, func(res client.Result) {
		lc.complete(ph, o, key, gwSeq, due, need, wroteSeq, predicted, sampled, res)
	})
	if lc.sel != nil {
		t1 := time.Now()
		ph.res.invokeUS = append(ph.res.invokeUS, float64(t1.Sub(t0))/1e3)
		if o.read {
			predicted = lc.sel.lastPK
		}
		if sampled {
			rid := consistency.RequestID{Client: lc.id, Seq: gwSeq}
			lc.log.add(event{at: lc.log.at(due), kind: evClientDue, id: rid, read: o.read})
			lc.log.add(event{at: lc.log.at(t0), kind: evInvokeStart, id: rid})
			if o.read {
				lc.log.add(event{at: lc.log.at(lc.sel.lastStart), end: lc.log.at(lc.sel.lastEnd), kind: evSelect, id: rid})
			}
		}
	}
}

// complete is the invocation callback: correctness checks first, then the
// measurements. Runs on the client node's goroutine.
func (lc *loadClient) complete(ph *phase, o op, key string, gwSeq uint64, due time.Time,
	need, wroteSeq uint32, predicted float64, sampled bool, res client.Result) {
	if ph.closed {
		return // answered after the phase gave up on it; already counted failed
	}
	now := time.Now()
	ph.outstanding--
	r := &ph.res
	ok := true
	switch {
	case res.Err != "":
		r.violate("%s %s: error reply: %s", lc.id, key, res.Err)
		ok = false
	case o.read:
		got, err := parseValue(res.Payload, key)
		if err != nil {
			r.violate("%s read %s: %v", lc.id, key, err)
			ok = false
		} else if int64(got)+int64(lc.w.Staleness) < int64(need) {
			r.violate("%s read %s returned sequence %d, behind its own acknowledged write %d (a=%d)",
				lc.id, key, got, need, lc.w.Staleness)
			ok = false
		}
	default:
		if err := checkUpdateReply(res.Payload); err != nil {
			r.violate("%s update %s: %v", lc.id, key, err)
			ok = false
		} else if wroteSeq > lc.acked[o.key] {
			lc.acked[o.key] = wroteSeq
		}
	}
	if now.Before(ph.end) {
		r.completed++
		if ph.win > 0 {
			r.doneWin = bump(r.doneWin, int(now.Sub(ph.start)/ph.win))
		}
	}
	ms := float64(now.Sub(due)) / 1e6
	var win uint16
	if ph.win > 0 {
		win = uint16(due.Sub(ph.start) / ph.win)
	}
	if o.read {
		timely := ok && now.Sub(due) <= readDeadline
		if ok {
			r.readMS = append(r.readMS, ms)
			r.readWin = append(r.readWin, win)
			r.answered++
			r.selected += res.Selected
		}
		if timely {
			r.timely++
			if ph.win > 0 {
				r.timelyWin = bump(r.timelyWin, int(win))
			}
		}
		r.cal.add(predicted, timely)
	} else if ok {
		r.updateMS = append(r.updateMS, ms)
		r.updateWin = append(r.updateWin, win)
	}
	if sampled {
		rid := consistency.RequestID{Client: lc.id, Seq: gwSeq}
		lc.log.add(event{at: lc.log.at(now), kind: evClientDone, id: rid, peer: res.Replica})
		if ok && !o.read {
			lc.tr.sampleAck(rid)
		}
	}
	if lc.tr != nil {
		// The read-your-writes oracle assumes closed-loop sessions: every
		// read numbered after a completed update was issued after it
		// completed. With many invocations outstanding that holds for an
		// update only if no read has been issued since it, so only those
		// completions are reported (reads never constrain the oracle).
		if o.read || lc.lastReadSeq < gwSeq {
			lc.tr.rec.clientResult(lc.id, gwSeq, o.read, !ok)
		}
	}

	switch ph.kind {
	case phaseCount:
		if ph.issued >= ph.count && ph.outstanding == 0 {
			lc.closePhase()
			return
		}
		lc.fill()
	case phaseClosed:
		lc.fill()
	}
}
