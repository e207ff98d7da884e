package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"aqua/internal/consistency"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/repository"
	"aqua/internal/shard"
	"aqua/internal/stats"
	"aqua/internal/tcpnet"
)

// Layer probes: isolated fixed-input timing loops over one layer's public
// functions. They say what a layer costs with nothing else contending, which
// is the floor under the corresponding in-situ number from the traced run.
// Each loop runs for at least min and reports nanoseconds per operation.

// probeSink keeps results alive so the compiler cannot drop the measured
// calls.
var probeSink int

// timeLoop calls body (which performs batch operations and returns that
// count) until min has elapsed and returns ns per operation.
func timeLoop(min time.Duration, body func() int) float64 {
	ops := 0
	start := time.Now()
	for time.Since(start) < min {
		ops += body()
	}
	return float64(time.Since(start)) / float64(ops)
}

func probeFrames() (request, batch node.Message) {
	payload := appendValue([]byte("k0001="), "k0001", 1)
	request = group.DataMsg{SrcEpoch: 7, Gen: 1, Seq: 42, Payload: consistency.Request{
		ID: consistency.RequestID{Client: "c00", Seq: 42}, Method: "Set", Payload: payload}}
	ids := make([]consistency.RequestID, 64)
	for i := range ids {
		ids[i] = consistency.RequestID{Client: "c00", Seq: uint64(1000 + i)}
	}
	batch = group.DataMsg{SrcEpoch: 7, Gen: 1, Seq: 43, Payload: consistency.GSNAssignBatch{
		First: 5000, Updates: ids[:32], ReadGSN: 5031, Reads: ids[32:]}}
	return request, batch
}

// probeCodec times the binary wire codec on the two frames that dominate
// the hot path: a 1 KiB Request and a 64-id GSNAssignBatch.
func probeCodec(min time.Duration, ms metricSet) error {
	req, batch := probeFrames()
	var buf []byte
	var encErr error
	ms["tcpnet.encode_ns_per_frame"] = timeLoop(min, func() int {
		for i := 0; i < 64; i++ {
			m := req
			if i%2 == 1 {
				m = batch
			}
			if buf, encErr = tcpnet.AppendFrame(buf[:0], "c00", "p00", m); encErr != nil {
				return 64
			}
		}
		probeSink += len(buf)
		return 64
	})
	if encErr != nil {
		return fmt.Errorf("codec probe: encode: %w", encErr)
	}
	var bodies [2][]byte
	for i, m := range []node.Message{req, batch} {
		frame, err := tcpnet.AppendFrame(nil, "c00", "p00", m)
		if err != nil {
			return fmt.Errorf("codec probe: encode: %w", err)
		}
		bodies[i] = frame[4:] // Decode takes the bytes after the length prefix
	}
	var dec tcpnet.FrameDecoder
	var decErr error
	ms["tcpnet.decode_ns_per_frame"] = timeLoop(min, func() int {
		for i := 0; i < 64; i++ {
			if _, _, _, err := dec.Decode(bodies[i%2]); err != nil {
				decErr = err
			}
		}
		return 64
	})
	if decErr != nil {
		return fmt.Errorf("codec probe: decode: %w", decErr)
	}
	return nil
}

// probeModel times the two kernels under every selection: one convolution of
// two window-20 distributions, and a repository record + rebuild of a
// replica's immediate-response distribution.
func probeModel(min time.Duration, ms metricSet) {
	samples := func(base, step time.Duration) []time.Duration {
		out := make([]time.Duration, simWindow)
		for i := range out {
			out[i] = base + time.Duration(i*i%17)*step
		}
		return out
	}
	p := stats.FromSamples(samples(2*time.Millisecond, 300*time.Microsecond))
	q := stats.FromSamples(samples(500*time.Microsecond, 170*time.Microsecond))
	var dst stats.PMF
	var sc stats.ConvScratch
	ms["stats.convolve_ns"] = timeLoop(min, func() int {
		for i := 0; i < 16; i++ {
			stats.ConvolveInto(&dst, p, q, &sc)
		}
		probeSink += dst.Len()
		return 16
	})

	repo := repository.New(simWindow)
	now := time.Now()
	k := 0
	ms["repository.pmf_rebuild_ns"] = timeLoop(min, func() int {
		for i := 0; i < 16; i++ {
			k++
			repo.RecordPerf("p01", time.Duration(1000+k%37*90)*time.Microsecond, time.Duration(k%23*40)*time.Microsecond)
			repo.RecordReply("p01", time.Duration(200+k%11*30)*time.Microsecond, now)
			pmf := repo.ImmediatePMF("p01", 2*time.Millisecond)
			probeSink += pmf.Len()
		}
		return 16
	})
}

// probeOrdering times the commit buffer (bodies in, one 64-update
// assignment window in, commits out) per update, and one quorum-floor
// evaluation for a three-member primary group.
func probeOrdering(min time.Duration, ms metricSet) {
	buf := consistency.NewCommitBuffer()
	ids := make([]consistency.RequestID, 64)
	var next uint64
	ms["consistency.commitbuf_ns_per_update"] = timeLoop(min, func() int {
		first := next + 1
		for i := range ids {
			next++
			ids[i] = consistency.RequestID{Client: "c00", Seq: next}
			buf.AddBody(consistency.Request{ID: ids[i], Method: "Set"})
		}
		probeSink += len(buf.AddAssignBatch(first, ids))
		return len(ids)
	})

	tracker := consistency.NewOrderTracker(3)
	var f uint64
	ms["consistency.floor_ns"] = timeLoop(min, func() int {
		for i := 0; i < 64; i++ {
			f++
			tracker.Observe("p01", f)
			tracker.Observe("p02", f-f%3)
			probeSink += int(tracker.Floor(f))
		}
		return 64
	})
}

// probeLive times the live runtime's floor under every latency: one message
// from Inject to the node's Recv, and how late a 1 ms Post fires (the batch
// window is such a timer).
func probeLive(min time.Duration, ms metricSet) {
	rt := live.NewRuntime()
	var got atomic.Int64
	wake := make(chan struct{}, 1) // capacity 1: a pending wake-up is enough
	var target atomic.Int64
	var ctx node.Context
	fired := make(chan time.Duration)
	rt.Register("probe", &node.FuncNode{
		OnInit: func(c node.Context) { ctx = c },
		OnRecv: func(_ node.ID, m node.Message) {
			if t0, ok := m.(time.Time); ok {
				ctx.Post(time.Millisecond, func() { fired <- time.Since(t0) - time.Millisecond })
				return
			}
			if got.Add(1) == target.Load() {
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		},
	})
	rt.Start()
	defer rt.Stop()

	const burst = 1024
	var msg node.Message = consistency.OrderCommit{Epoch: 1, Floor: 1}
	ms["live.inject_recv_ns"] = timeLoop(min, func() int {
		target.Add(burst)
		for i := 0; i < burst; i++ {
			rt.Inject("x", "probe", msg)
		}
		for got.Load() < target.Load() {
			<-wake
		}
		return burst
	})

	var skews []float64
	for start := time.Now(); time.Since(start) < min || len(skews) < 8; {
		rt.Inject("x", "probe", time.Now())
		skews = append(skews, float64(<-fired)/1e3)
	}
	ms["live.timer_skew_us_p50"] = median(skews)
}

// probeShard times the shard map's key lookup.
func probeShard(min time.Duration, ms metricSet) {
	m := shard.NewUniform(16)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	ms["shard.owner_ns"] = timeLoop(min, func() int {
		for _, k := range keys {
			probeSink += m.Owner(k)
		}
		return len(keys)
	})
}

// runProbes runs every layer probe once.
func runProbes(min time.Duration, ms metricSet) error {
	if err := probeCodec(min, ms); err != nil {
		return err
	}
	probeModel(min, ms)
	probeOrdering(min, ms)
	probeLive(min, ms)
	probeShard(min, ms)
	return nil
}
