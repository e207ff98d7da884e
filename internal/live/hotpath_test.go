package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqua/internal/node"
)

// TestLiveTimerCancelReleasesPromptly is the SetTimer leak regression test:
// cancelling a timer must release the underlying time.AfterFunc immediately
// (observable through ActiveTimers), not hold it until the original
// deadline.
func TestLiveTimerCancelReleasesPromptly(t *testing.T) {
	rt := NewRuntime()
	const churn = 1000
	done := make(chan struct{})
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			// Arm far-future timers and cancel them right away.
			for i := 0; i < churn; i++ {
				cancel := ctx.SetTimer(time.Hour, func() {
					t.Error("cancelled timer fired")
				})
				cancel()
				cancel() // idempotent
			}
			close(done)
		},
	})
	rt.Start()
	defer rt.Stop()
	<-done
	if n := rt.ActiveTimers(); n != 0 {
		t.Fatalf("after cancelling %d timers, ActiveTimers = %d, want 0", churn, n)
	}
}

// TestLiveTimerAccountingBalances pins that every SetTimer path — fire,
// cancel-before-fire, cancel-after-queue, and drop-on-node-stop — releases
// the ActiveTimers count exactly once.
func TestLiveTimerAccountingBalances(t *testing.T) {
	rt := NewRuntime()
	var fired atomic.Int64
	armed := make(chan struct{})
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			for i := 0; i < 100; i++ {
				ctx.SetTimer(time.Millisecond, func() { fired.Add(1) })
			}
			// These never fire: the node is stopped before the hour is up.
			for i := 0; i < 50; i++ {
				ctx.SetTimer(time.Hour, func() { t.Error("stale timer fired") })
			}
			close(armed)
		},
	})
	rt.Start()
	<-armed
	waitFor(t, func() bool { return fired.Load() == 100 }, "100 timer fires")
	rt.Stop()
	// Stopping the runtime does not cancel armed timers; their AfterFunc
	// will eventually fire into a stopped mailbox and drop. The short-lived
	// ones have all fired, so only the hour-long ones remain armed.
	if n := rt.ActiveTimers(); n != 50 {
		t.Fatalf("ActiveTimers after stop = %d, want 50 still armed", n)
	}
}

// TestLiveMailboxEnqueueVsStopRace hammers a node with concurrent senders
// racing StopNode, under -race in CI. The contract: no panic, no deadlock,
// and no delivery after stop() has returned.
func TestLiveMailboxEnqueueVsStopRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		rt := NewRuntime()
		var delivered atomic.Int64
		var stopped atomic.Bool
		rt.Register("sink", &node.FuncNode{
			OnRecv: func(node.ID, node.Message) {
				if stopped.Load() {
					t.Error("delivery after StopNode returned")
				}
				delivered.Add(1)
			},
		})
		rt.Start()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 500; i++ {
					rt.Inject("src", "sink", i)
				}
			}()
		}
		close(start)
		time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
		rt.StopNode("sink")
		stopped.Store(true)
		wg.Wait()
		rt.Stop()
	}
}

// TestLiveBatcher covers the batched-inject path used by the transport read
// loop: grouping by destination, reuse across flushes, unknown-destination
// drops, and enqueue-batch-vs-stop.
func TestLiveBatcher(t *testing.T) {
	rt := NewRuntime()
	var aGot, bGot atomic.Int64
	var aOrder []int
	rt.Register("a", &node.FuncNode{
		OnRecv: func(from node.ID, m node.Message) {
			aOrder = append(aOrder, m.(int)) // single mailbox goroutine: safe
			aGot.Add(1)
		},
	})
	rt.Register("b", &node.FuncNode{
		OnRecv: func(node.ID, node.Message) { bGot.Add(1) },
	})
	rt.Start()
	defer rt.Stop()

	bat := NewBatcher(rt)
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 100; i++ {
			bat.Add("src", "a", cycle*100+i)
			if i%10 == 0 {
				bat.Add("src", "b", i)
			}
			bat.Add("src", "ghost", i) // unknown: dropped silently
		}
		bat.Flush()
	}
	bat.Flush() // empty flush is a no-op

	waitFor(t, func() bool { return aGot.Load() == 300 && bGot.Load() == 30 }, "batched deliveries")
	for i, v := range aOrder {
		if v != i {
			t.Fatalf("batched delivery reordered at %d: %v", i, aOrder[:i+1])
		}
	}

	rt.StopNode("a")
	bat.Add("src", "a", 999)
	bat.Flush() // enqueueBatch on a stopped node must not panic or deliver
	time.Sleep(10 * time.Millisecond)
	if aGot.Load() != 300 {
		t.Fatal("batch delivered to stopped node")
	}
}

// TestLiveMailboxChunkBoundaries pushes exactly around multiples of the
// chunk size through one mailbox to exercise chunk hand-off and recycling.
func TestLiveMailboxChunkBoundaries(t *testing.T) {
	rt := NewRuntime()
	const total = chunkSize*3 + 7
	var got atomic.Int64
	var last atomic.Int64
	rt.Register("sink", &node.FuncNode{
		OnRecv: func(_ node.ID, m node.Message) {
			v := int64(m.(int))
			if v != last.Load() {
				t.Errorf("out of order: got %d want %d", v, last.Load())
			}
			last.Store(v + 1)
			got.Add(1)
		},
	})
	rt.Start()
	defer rt.Stop()
	bat := NewBatcher(rt)
	for i := 0; i < total; i++ {
		bat.Add("src", "sink", i)
		if i%(chunkSize+1) == 0 {
			bat.Flush()
		}
	}
	bat.Flush()
	waitFor(t, func() bool { return got.Load() == total }, "chunk-boundary deliveries")
}

// TestDrainZeroesRecycledChunks: a drain that used only part of a chunk
// clears just those envelopes, so every chunk it hands back for reuse must
// still be all zero — no message, sender or timer reference left behind.
func TestDrainZeroesRecycledChunks(t *testing.T) {
	for _, n := range []int{5, chunkSize + 3} {
		got := 0
		l := newLiveNode(NewRuntime(), "a", &node.FuncNode{
			OnRecv: func(node.ID, node.Message) { got++ },
		}, nil)
		for i := 0; i < n; i++ {
			env := envelope{from: "src", msg: i}
			if i%2 == 1 {
				env = envelope{timer: func() { got++ }}
			}
			l.mb.put(env)
		}
		chain, _ := l.mb.take(nil)
		spare := l.drain(chain)
		if got != n {
			t.Fatalf("%d envelopes: drain ran %d", n, got)
		}
		chunks := 0
		for c := spare; c != nil; c = c.next {
			chunks++
			if c.w != 0 {
				t.Fatalf("%d envelopes: recycled chunk keeps write cursor %d", n, c.w)
			}
			for i, env := range c.envs {
				if env.from != "" || env.msg != nil || env.timer != nil || env.t != nil {
					t.Fatalf("%d envelopes: recycled chunk keeps envelope %d: %+v", n, i, env)
				}
			}
		}
		if want := (n + chunkSize - 1) / chunkSize; chunks != want {
			t.Fatalf("%d envelopes: drain returned %d chunks, want %d", n, chunks, want)
		}
	}
}

// BenchmarkMailboxDrain measures one drain of k queued messages: the
// enqueue, the detach, the deliveries and the recycling of the chunk.
func BenchmarkMailboxDrain(b *testing.B) {
	var msg node.Message = 1
	for _, k := range []int{1, 8, 64, chunkSize} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			l := newLiveNode(NewRuntime(), "a", &node.FuncNode{}, nil)
			var spare *mchunk
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					l.mb.put(envelope{from: "src", msg: msg})
				}
				chain, _ := l.mb.take(spare)
				spare = l.drain(chain)
			}
		})
	}
}
