package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"aqua/internal/consistency"
	"aqua/internal/node"
)

// Post-run analysis of a traced live run: per-layer metrics from the node
// logs, and the critical path of each sampled request's first reply rebuilt
// from send-call and Recv-entry stamps. Runs after every runtime stopped.

func f32s(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// frontierEv is a monotone-valued event (ack frontier, commit floor, batch
// range end, state-update CSN) on one node.
type frontierEv struct {
	at   int64
	gsn  uint64 // frontier or floor
	peer node.ID
}

// firstCovering returns the earliest event at or after minAt whose value
// covers gsn (and, when peer is set, that involves that peer).
func firstCovering(evs []frontierEv, gsn uint64, minAt int64, peer node.ID) (frontierEv, bool) {
	for _, e := range evs { // logs are in time order per node
		if e.at >= minAt && e.gsn >= gsn && (peer == "" || e.peer == peer) {
			return e, true
		}
	}
	return frontierEv{}, false
}

// reqTrace gathers one sampled request's stamps across nodes.
type reqTrace struct {
	id       consistency.RequestID
	read     bool
	due      int64
	invStart int64
	selStart int64
	selEnd   int64
	done     int64
	replica  node.ID
	gsn      uint64
	hasDone  bool
	// first stamp per (node, direction, message kind, peer)
	stamps map[stampKey]int64
}

type stampKey struct {
	node, peer node.ID
	kind       evKind
	msg        msgKind
}

func (r *reqTrace) stamp(k stampKey) (int64, bool) {
	at, ok := r.stamps[k]
	return at, ok
}

// stage is one step of a request's critical path.
type stage struct {
	name       string
	node       node.ID
	start, end int64
}

// pathStats accumulates, per stage name, durations and self times.
type pathStats struct {
	order []string
	dur   map[string][]float64
	self  map[string][]float64
	e2e   []float64
	total int // sampled requests of this class
}

func newPathStats() *pathStats {
	return &pathStats{dur: map[string][]float64{}, self: map[string][]float64{}}
}

func (p *pathStats) add(stages []stage, selfNS []int64) {
	// A request may cross the same kind of stage more than once (hops);
	// each occurrence gets its own positional name so medians sum.
	seen := map[string]int{}
	for i, s := range stages {
		seen[s.name]++
		name := s.name
		if s.name == "tcpnet.hop" {
			name = fmt.Sprintf("tcpnet.hop#%d", seen[s.name])
		}
		if _, ok := p.dur[name]; !ok {
			p.order = append(p.order, name)
		}
		p.dur[name] = append(p.dur[name], float64(s.end-s.start)/1e3)
		p.self[name] = append(p.self[name], float64(selfNS[i])/1e3)
	}
	p.e2e = append(p.e2e, float64(stages[len(stages)-1].end-stages[0].start)/1e3)
}

// sumErr is |sum of stage medians - end-to-end median| / end-to-end median.
func (p *pathStats) sumErr() float64 {
	if len(p.e2e) == 0 {
		return 0
	}
	var sum float64
	for _, name := range p.order {
		sum += median(p.dur[name])
	}
	e := median(p.e2e)
	d := sum - e
	if d < 0 {
		d = -d
	}
	return ratio(d, e)
}

// analysis is everything the traced run derives from the logs.
type analysis struct {
	update, read *pathStats
	logAckUS     []float64
	spans        []spanRecord
}

// spanRecord is the JSONL trace line: name, start, end, the request it
// belongs to and the span that caused it.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Request string `json:"request"`
}

// analyze derives the per-layer metrics and the critical paths.
func (tr *tracer) analyze(open *merged, ms metricSet) *analysis {
	wall := tr.disarmedAt.Sub(tr.armedAt)
	ops := float64(open.attempted - open.failed)
	updates := float64(len(open.updateMS))

	var recvN, dataN, ackN, hbN, retransN, lazyBytes float64
	var enqueue, hopUS, appApply, appRead, appSnap, walAppend, walSnap []float64
	var walAppends, walBytes float64
	var recvByKind [mkCount][]float64
	busy := map[string]float64{}
	walBusy := 0.0
	sends := map[hopKey]int64{}
	for _, l := range tr.order {
		recvN += float64(l.recvN)
		dataN += float64(l.dataN)
		ackN += float64(l.ackN)
		hbN += float64(l.hbN)
		retransN += float64(l.retransN)
		lazyBytes += float64(l.lazyBytes)
		walAppends += float64(l.walAppends)
		walBytes += float64(l.walBytes)
		enqueue = append(enqueue, f32s(l.enqueueNS)...)
		appRead = append(appRead, f32s(l.appReadUS)...)
		if f := float64(l.busyNS) / float64(wall); f > busy[l.role] {
			busy[l.role] = f // the busiest node of a role is the one that caps throughput
		}
		if f := float64(l.walBusyNS) / float64(wall); f > walBusy {
			walBusy = f
		}
		if l.role != "client" {
			for k := range l.recvUS {
				recvByKind[k] = append(recvByKind[k], f32s(l.recvUS[k])...)
			}
		}
		for _, op := range l.appOps {
			d := float64(op.end-op.start) / 1e3
			switch op.name {
			case "apps.apply":
				appApply = append(appApply, d)
			case "apps.snapshot":
				appSnap = append(appSnap, d)
			}
		}
		for _, op := range l.walOps {
			d := float64(op.end-op.start) / 1e3
			switch op.name {
			case "wal.append":
				walAppend = append(walAppend, d)
			case "wal.snapshot":
				walSnap = append(walSnap, d/1e3)
			}
		}
		for _, h := range l.hopSends {
			sends[hopKey{from: l.id, to: h.peer, gen: h.gen, seq: h.seq}] = h.at
		}
	}
	for _, l := range tr.order {
		for _, h := range l.hopRecvs {
			k := hopKey{from: h.peer, to: l.id, gen: h.gen, seq: h.seq}
			if sent, ok := sends[k]; ok && h.at >= sent {
				hopUS = append(hopUS, float64(h.at-sent)/1e3)
				delete(sends, k) // a retransmitted copy must not match again
			}
		}
	}

	ms["live.recv_per_op"] = ratio(recvN, ops)
	for _, role := range []string{"sequencer", "primary", "secondary", "client"} {
		ms["live.busy_frac."+role] = busy[role]
	}
	ms["group.data_per_op"] = ratio(dataN, ops)
	ms["group.acks_per_op"] = ratio(ackN, ops)
	ms["group.heartbeats_per_s"] = hbN / wall.Seconds()
	ms["group.retransmits_per_kop"] = ratio(retransN*1e3, ops)
	ms["tcpnet.hop_us_p50"] = median(hopUS)
	ms["tcpnet.send_enqueue_ns_p50"] = median(enqueue)
	ms["replica.lazy_bytes_per_s"] = lazyBytes / wall.Seconds()
	for _, k := range []msgKind{mkRequest, mkAssignBatch, mkAssignAck, mkOrderCommit, mkStateUpdate} {
		ms["replica.recv_us_p50."+msgKindName[k]] = median(recvByKind[k])
	}
	ms["apps.apply_us_p50"] = median(appApply)
	ms["apps.read_us_p50"] = median(appRead)
	ms["apps.snapshot_us_p50"] = median(appSnap)
	ms["wal.appends_per_update"] = ratio(walAppends, updates)
	ms["wal.bytes_per_update"] = ratio(walBytes, updates)
	ms["wal.append_us_p50"] = quantile(walAppend, 0.50)
	ms["wal.append_us_p99"] = quantile(walAppend, 0.99)
	ms["wal.busy_frac"] = walBusy
	ms["wal.snapshot_ms_p50"] = median(walSnap)
	ms["wal.snapshots_per_kupdate"] = ratio(float64(len(walSnap))*1e3, updates)

	// Registry counters, as deltas over the traced window.
	reg := tr.regTotals()
	d := func(key string) float64 { return reg[key] - tr.regBase[key] }
	ms["replica.fast_read_frac"] = ratio(d("fast"), d("served"))
	ms["replica.deferred_read_frac"] = ratio(d("deferred"), d("served"))
	ms["replica.staleness_at_read_mean"] = ratio(d("staleSum"), d("staleN"))
	ms["replica.lazy_ticks_per_s"] = d("lazyTicks") / wall.Seconds()
	ms["client.retries_per_kop"] = ratio(d("retries")*1e3, ops)
	ms["tcpnet.frames_per_op"] = ratio(d("frames"), ops)
	ms["tcpnet.bytes_per_op"] = ratio(d("bytes"), ops)
	ms["tcpnet.drops_per_kop"] = ratio(d("drops")*1e3, ops)
	ms["tcpnet.flush_batch_mean"] = ratio(d("flushSum"), d("flushN"))

	a := tr.paths()
	ms["replica.order_wait_us_p50"] = median(append(append([]float64(nil), a.update.dur["replica.order_wait"]...), a.read.dur["replica.order_wait"]...))
	ms["replica.log_ack_us_p50"] = median(a.logAckUS)
	ms["replica.floor_wait_us_p50"] = median(a.update.dur["replica.floor_wait"])
	ms["replica.release_apply_us_p50"] = median(a.update.dur["replica.release_apply"])
	ms["bench.path_sum_err_frac"] = a.update.sumErr()
	ms["bench.path_update_ms_p50"] = median(a.update.e2e) / 1e3
	ms["bench.path_read_ms_p50"] = median(a.read.e2e) / 1e3
	return a
}

type hopKey struct {
	from, to node.ID
	gen, seq uint64
}

// regTotals sums the registry's instruments of interest over their labels.
func (tr *tracer) regTotals() map[string]float64 {
	b := map[string]float64{}
	for _, s := range tr.reg.Snapshot() {
		switch s.Name {
		case "aqua_replica_fast_reads_total":
			b["fast"] += s.Value
		case "aqua_replica_reads_served_total":
			b["served"] += s.Value
		case "aqua_replica_reads_deferred_total":
			b["deferred"] += s.Value
		case "aqua_publisher_lazy_ticks_total":
			b["lazyTicks"] += s.Value
		case "aqua_replica_staleness_at_read":
			b["staleSum"] += s.Sum
			b["staleN"] += float64(s.Count)
		case "aqua_client_retries_total":
			b["retries"] += s.Value
		case "tcpnet_messages_sent_total":
			b["frames"] += s.Value
		case "tcpnet_bytes_sent_total":
			b["bytes"] += s.Value
		case "tcpnet_drops_total":
			b["drops"] += s.Value
		case "tcpnet_flush_batch_size":
			b["flushSum"] += s.Sum
			b["flushN"] += float64(s.Count)
		}
	}
	return b
}

// paths rebuilds the critical path of every sampled request's first reply.
//
//	update, replicated: client.invoke -> hop -> replica.order_wait ->
//	  [hop -> replica.log_ack -> hop ->] replica.floor_wait -> hop ->
//	  replica.release_apply -> hop -> client.deliver
//	  (the bracketed follower leg only when a covering AssignAck had
//	  reached the sequencer before it released the floor)
//	update, plain:      client.invoke -> hop -> replica.order_wait -> hop ->
//	  replica.release_apply -> hop -> client.deliver
//	read:               client.invoke -> hop -> replica.order_wait -> hop ->
//	  replica.serve -> hop -> client.deliver
//
// Every stage starts where the previous one ended, so a request's stages sum
// to its end-to-end time exactly; a request whose stamps are incomplete or
// out of order (its reply raced ahead by another route) is left out.
func (tr *tracer) paths() *analysis {
	const seq = node.ID("p00")
	reqs := map[consistency.RequestID]*reqTrace{}
	get := func(id consistency.RequestID) *reqTrace {
		r := reqs[id]
		if r == nil {
			r = &reqTrace{id: id, stamps: map[stampKey]int64{}}
			reqs[id] = r
		}
		return r
	}
	acksIn := []frontierEv{}                // at the sequencer
	acksOut := map[node.ID][]frontierEv{}   // at each follower
	commitsOut := []frontierEv{}            // at the sequencer
	commitsIn := map[node.ID][]frontierEv{} // at each follower
	for _, l := range tr.order {
		for _, e := range l.events {
			switch e.kind {
			case evClientDue:
				r := get(e.id)
				r.due, r.read = e.at, e.read
			case evInvokeStart:
				get(e.id).invStart = e.at
			case evSelect:
				r := get(e.id)
				r.selStart, r.selEnd = e.at, e.end
			case evClientDone:
				r := get(e.id)
				r.done, r.replica, r.hasDone = e.at, e.peer, true
			case evSend, evRecv:
				fe := frontierEv{at: e.at, gsn: e.gsn, peer: e.peer}
				switch {
				case e.msg == mkAssignAck && e.kind == evRecv && l.id == seq:
					acksIn = append(acksIn, fe)
				case e.msg == mkAssignAck && e.kind == evSend:
					acksOut[l.id] = append(acksOut[l.id], fe)
				case e.msg == mkOrderCommit && e.kind == evSend && l.id == seq:
					commitsOut = append(commitsOut, fe)
				case e.msg == mkOrderCommit && e.kind == evRecv:
					commitsIn[l.id] = append(commitsIn[l.id], fe)
				}
				if e.id.Client == "" {
					continue
				}
				r := get(e.id)
				if e.msg == mkAssignBatch && e.gsn > 0 {
					r.gsn = e.gsn
				}
				k := stampKey{node: l.id, peer: e.peer, kind: e.kind, msg: e.msg}
				if old, ok := r.stamps[k]; !ok || e.at < old {
					r.stamps[k] = e.at
				}
			}
		}
	}

	a := &analysis{update: newPathStats(), read: newPathStats()}
	// Layer metric, whether or not it was on a critical path: at every
	// follower, a sampled update's batch arriving to the AssignAck covering
	// it leaving.
	for _, r := range reqs {
		if r.read || r.gsn == 0 {
			continue
		}
		for F, outs := range acksOut {
			in, ok := r.stamp(stampKey{node: F, peer: seq, kind: evRecv, msg: mkAssignBatch})
			if !ok {
				continue
			}
			if out, ok := firstCovering(outs, r.gsn, in, ""); ok {
				a.logAckUS = append(a.logAckUS, float64(out.at-in)/1e3)
			}
		}
	}
	ids := make([]consistency.RequestID, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Client != ids[j].Client {
			return ids[i].Client < ids[j].Client
		}
		return ids[i].Seq < ids[j].Seq
	})
	replicated := len(acksIn) > 0
	nextSpan := 1
	for _, id := range ids {
		r := reqs[id]
		if !r.hasDone || r.due == 0 || r.invStart == 0 {
			continue
		}
		ps := a.update
		if r.read {
			ps = a.read
		}
		ps.total++
		c, R := id.Client, r.replica
		var stages []stage
		ok := true
		cur := r.due
		step := func(name string, n node.ID, end int64, found bool) {
			if !ok {
				return
			}
			if !found || end < cur {
				ok = false
				return
			}
			stages = append(stages, stage{name: name, node: n, start: cur, end: end})
			cur = end
		}
		hop := func(end int64, found bool) { step("tcpnet.hop", "", end, found) }

		// The path starts when the generator invokes, not when the request
		// was due: how late the generator ran is its own metric.
		cur = r.invStart
		at, found := r.stamp(stampKey{node: c, peer: seq, kind: evSend, msg: mkRequest})
		step("client.invoke", c, at, found)
		at, found = r.stamp(stampKey{node: seq, peer: c, kind: evRecv, msg: mkRequest})
		hop(at, found)
		if r.read || !replicated {
			at, found = r.stamp(stampKey{node: seq, peer: R, kind: evSend, msg: mkAssignBatch})
			step("replica.order_wait", seq, at, found)
			at, found = r.stamp(stampKey{node: R, peer: seq, kind: evRecv, msg: mkAssignBatch})
			hop(at, found)
			name := "replica.release_apply"
			if r.read {
				name = "replica.serve"
			}
			at, found = r.stamp(stampKey{node: R, peer: c, kind: evSend, msg: mkReply})
			step(name, R, at, found)
		} else {
			// Replicated ordering. The release that let R reply is the
			// first OrderCommit covering this GSN; what let the sequencer
			// send it is either a follower's covering AssignAck that had
			// arrived by then (the quorum path) or, when none had, the
			// sequencer's own durable frontier.
			oc, haveOC := firstCovering(commitsOut, r.gsn, cur, R)
			ack, haveAck := firstCovering(acksIn, r.gsn, cur, "")
			if haveAck && haveOC && ack.at <= oc.at {
				F := ack.peer
				at, found = r.stamp(stampKey{node: seq, peer: F, kind: evSend, msg: mkAssignBatch})
				step("replica.order_wait", seq, at, found && r.gsn > 0)
				at, found = r.stamp(stampKey{node: F, peer: seq, kind: evRecv, msg: mkAssignBatch})
				hop(at, found)
				out, haveOut := firstCovering(acksOut[F], r.gsn, cur, "")
				step("replica.log_ack", F, out.at, haveOut)
				hop(ack.at, true)
			} else {
				at, found = r.stamp(stampKey{node: seq, peer: R, kind: evSend, msg: mkAssignBatch})
				step("replica.order_wait", seq, at, found && r.gsn > 0)
			}
			step("replica.floor_wait", seq, oc.at, haveOC)
			in, haveIn := firstCovering(commitsIn[R], r.gsn, cur, "")
			hop(in.at, haveIn)
			at, found = r.stamp(stampKey{node: R, peer: c, kind: evSend, msg: mkReply})
			step("replica.release_apply", R, at, found)
		}
		at, found = r.stamp(stampKey{node: c, peer: R, kind: evRecv, msg: mkReply})
		hop(at, found)
		step("client.deliver", c, r.done, true)
		if !ok {
			continue
		}

		// Self time: a stage's duration minus the timed calls it contains
		// on its node (WAL operations, application calls, the selector).
		selfNS := make([]int64, len(stages))
		root := nextSpan
		nextSpan++
		reqName := fmt.Sprintf("%s/%d", id.Client, id.Seq)
		kind := "update"
		if r.read {
			kind = "read"
		}
		a.spans = append(a.spans, spanRecord{ID: root, Name: kind, StartNS: r.invStart, EndNS: r.done, Request: reqName})
		for i, s := range stages {
			sid := nextSpan
			nextSpan++
			a.spans = append(a.spans, spanRecord{ID: sid, Parent: root, Name: s.name, Node: string(s.node),
				StartNS: s.start, EndNS: s.end, Request: reqName})
			selfNS[i] = s.end - s.start
			var children []opSpan
			if l := tr.logs[s.node]; l != nil && s.node != c {
				children = append(children, overlapping(l.walOps, s.start, s.end)...)
				children = append(children, overlapping(l.appOps, s.start, s.end)...)
			}
			if s.name == "client.invoke" && r.selEnd > 0 {
				children = append(children, opSpan{name: "selection.select", start: r.selStart, end: r.selEnd})
			}
			for _, ch := range children {
				lo, hi := max(ch.start, s.start), min(ch.end, s.end)
				selfNS[i] -= hi - lo
				a.spans = append(a.spans, spanRecord{ID: nextSpan, Parent: sid, Name: ch.name, Node: string(s.node),
					StartNS: lo, EndNS: hi, Request: reqName})
				nextSpan++
			}
			if selfNS[i] < 0 { // overlapping children (cannot happen on one goroutine)
				selfNS[i] = 0
			}
		}
		ps.add(stages, selfNS)
	}
	return a
}

// overlapping returns the spans of ops (in time order) that intersect
// [start, end).
func overlapping(ops []opSpan, start, end int64) []opSpan {
	i := sort.Search(len(ops), func(i int) bool { return ops[i].end > start })
	var out []opSpan
	for ; i < len(ops) && ops[i].start < end; i++ {
		out = append(out, ops[i])
	}
	return out
}

// report appends the stage table to the run's notes.
func (a *analysis) report(res *runResult) {
	for _, p := range []struct {
		kind string
		ps   *pathStats
	}{{"update", a.update}, {"read", a.read}} {
		ps := p.ps
		res.note("critical path of a %s's first reply: %d of %d sampled requests rebuilt, end-to-end p50 %.0f us, sum-of-stage-medians error %.3f",
			p.kind, len(ps.e2e), ps.total, median(ps.e2e), ps.sumErr())
		for _, name := range ps.order {
			res.note("    %-24s p50 %9.1f us   self %9.1f us   (n=%d)", name, median(ps.dur[name]), median(ps.self[name]), len(ps.dur[name]))
		}
	}
}

// writeSpans writes the sampled spans as JSONL under the scratch root.
func (a *analysis) writeSpans(w *workloadSpec, seed int64) (string, error) {
	dir := filepath.Join(scratchRoot, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range a.spans {
		if err := enc.Encode(&a.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
