package live

import (
	"sync/atomic"
	"testing"
	"time"

	"aqua/internal/node"
)

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timeout waiting for: " + msg)
}

func TestLiveDeliversMessages(t *testing.T) {
	rt := NewRuntime()
	var got atomic.Int64
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			for i := 0; i < 10; i++ {
				ctx.Send("b", i)
			}
		},
	})
	var order []int
	rt.Register("b", &node.FuncNode{
		OnRecv: func(from node.ID, m node.Message) {
			order = append(order, m.(int)) // single mailbox goroutine: safe
			got.Add(1)
		},
	})
	rt.Start()
	defer rt.Stop()
	waitFor(t, func() bool { return got.Load() == 10 }, "10 deliveries")
	for i, v := range order {
		if v != i {
			t.Fatalf("in-process delivery reordered: %v", order)
		}
	}
}

func TestLiveTimerRunsInNodeContext(t *testing.T) {
	rt := NewRuntime()
	var fired atomic.Bool
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			ctx.SetTimer(10*time.Millisecond, func() { fired.Store(true) })
		},
	})
	rt.Start()
	defer rt.Stop()
	waitFor(t, fired.Load, "timer")
}

func TestLiveTimerCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short: real-time sleep to prove the timer stayed quiet")
	}
	rt := NewRuntime()
	var fired atomic.Bool
	cancelCh := make(chan node.CancelFunc, 1)
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			cancelCh <- ctx.SetTimer(50*time.Millisecond, func() { fired.Store(true) })
		},
	})
	rt.Start()
	defer rt.Stop()
	cancel := <-cancelCh
	cancel()
	cancel() // idempotent
	time.Sleep(100 * time.Millisecond)
	if fired.Load() {
		t.Fatal("canceled timer fired")
	}
}

func TestLiveStopTerminatesNodes(t *testing.T) {
	rt := NewRuntime()
	var ticks atomic.Int64
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			var tick func()
			tick = func() {
				ticks.Add(1)
				ctx.SetTimer(5*time.Millisecond, tick)
			}
			ctx.SetTimer(5*time.Millisecond, tick)
		},
	})
	rt.Start()
	waitFor(t, func() bool { return ticks.Load() > 2 }, "a few ticks")
	rt.Stop()
	n := ticks.Load()
	time.Sleep(50 * time.Millisecond)
	// At most one in-flight tick may land after Stop returns' snapshot.
	if ticks.Load() > n+1 {
		t.Fatalf("ticks continued after Stop: %d -> %d", n, ticks.Load())
	}
	rt.Stop() // idempotent
}

func TestLiveRemoteHook(t *testing.T) {
	var remoteTo atomic.Value
	rt := NewRuntime(WithRemote(func(from, to node.ID, m node.Message) {
		remoteTo.Store(to)
	}))
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) { ctx.Send("far-away", "hello") },
	})
	rt.Start()
	defer rt.Stop()
	waitFor(t, func() bool { return remoteTo.Load() != nil }, "remote hook")
	if remoteTo.Load().(node.ID) != "far-away" {
		t.Fatalf("remote to = %v", remoteTo.Load())
	}
}

func TestLiveInject(t *testing.T) {
	rt := NewRuntime()
	var got atomic.Value
	rt.Register("a", &node.FuncNode{
		OnRecv: func(from node.ID, m node.Message) {
			got.Store(string(from) + ":" + m.(string))
		},
	})
	rt.Start()
	defer rt.Stop()
	rt.Inject("remote-node", "a", "ping")
	rt.Inject("remote-node", "ghost", "dropped") // must not panic
	waitFor(t, func() bool { return got.Load() != nil }, "inject")
	if got.Load().(string) != "remote-node:ping" {
		t.Fatalf("got %v", got.Load())
	}
}

func TestLiveLocal(t *testing.T) {
	rt := NewRuntime()
	rt.Register("a", &node.FuncNode{})
	if !rt.Local("a") || rt.Local("b") {
		t.Fatal("Local() wrong")
	}
}

func TestLiveDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt := NewRuntime()
	rt.Register("a", &node.FuncNode{})
	rt.Register("a", &node.FuncNode{})
}

func TestLiveRegisterAfterStartPanics(t *testing.T) {
	rt := NewRuntime()
	rt.Register("a", &node.FuncNode{})
	rt.Start()
	defer rt.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Register("b", &node.FuncNode{})
}

func TestLiveNoCrossNodeConcurrency(t *testing.T) {
	// Hammer one node from three senders; its handler must never run
	// concurrently with itself.
	rt := NewRuntime()
	var inHandler atomic.Int32
	var violations atomic.Int32
	var received atomic.Int64
	rt.Register("sink", &node.FuncNode{
		OnRecv: func(node.ID, node.Message) {
			if inHandler.Add(1) != 1 {
				violations.Add(1)
			}
			time.Sleep(10 * time.Microsecond)
			inHandler.Add(-1)
			received.Add(1)
		},
	})
	for _, id := range []node.ID{"s1", "s2", "s3"} {
		rt.Register(id, &node.FuncNode{
			OnInit: func(ctx node.Context) {
				for i := 0; i < 100; i++ {
					ctx.Send("sink", i)
				}
			},
		})
	}
	rt.Start()
	defer rt.Stop()
	waitFor(t, func() bool { return received.Load() == 300 }, "300 deliveries")
	if violations.Load() != 0 {
		t.Fatalf("handler ran concurrently %d times", violations.Load())
	}
}

func TestLiveStopNode(t *testing.T) {
	rt := NewRuntime()
	var got atomic.Int64
	rt.Register("a", &node.FuncNode{})
	rt.Register("b", &node.FuncNode{
		OnRecv: func(node.ID, node.Message) { got.Add(1) },
	})
	rt.Start()
	defer rt.Stop()

	rt.Inject("x", "b", "one")
	waitFor(t, func() bool { return got.Load() == 1 }, "pre-stop delivery")

	rt.StopNode("b")
	if rt.Local("b") {
		t.Fatal("stopped node still local")
	}
	rt.Inject("x", "b", "two") // dropped
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatal("message delivered to stopped node")
	}
	rt.StopNode("b") // idempotent
	rt.StopNode("ghost")
}

// TestStopBeforeStart: stopping a runtime (or one of its nodes) that was
// never started returns at once. Only a started node has a goroutine to
// wait for; deployment error paths stop the runtime before Start.
func TestStopBeforeStart(t *testing.T) {
	for name, stop := range map[string]func(*Runtime){
		"Stop":     func(rt *Runtime) { rt.Stop() },
		"StopNode": func(rt *Runtime) { rt.StopNode("a") },
	} {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime()
			rt.Register("a", &node.FuncNode{})
			returned := make(chan struct{})
			go func() {
				stop(rt)
				close(returned)
			}()
			select {
			case <-returned:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s on a never-started runtime hung", name)
			}
		})
	}
}

// TestOnIdleRunsAfterDrain: the idle hook runs on the node's goroutine
// (the race detector sees the unsynchronized counter it shares with Recv)
// and only once the mailbox is empty. Messages queued behind a blocked
// Recv keep the mailbox non-empty when that batch ends, so the one idle
// call comes after all of them.
func TestOnIdleRunsAfterDrain(t *testing.T) {
	rt := NewRuntime()
	entered := make(chan struct{})
	release := make(chan struct{})
	var delivered, idles atomic.Int64
	recvd := 0         // node goroutine only
	var idleSeen []int // node goroutine only; read after Stop
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			ctx.OnIdle(func() {
				idleSeen = append(idleSeen, recvd)
				idles.Add(1)
			})
		},
		OnRecv: func(_ node.ID, m node.Message) {
			if m.(int) == 0 {
				close(entered)
				<-release
			}
			recvd++
			delivered.Add(1)
		},
	})
	rt.Start()
	rt.Inject("x", "a", 0)
	<-entered
	for i := 1; i < 10; i++ {
		rt.Inject("x", "a", i)
	}
	close(release)
	waitFor(t, func() bool { return delivered.Load() == 10 && idles.Load() == 1 }, "10 deliveries, then idle")
	rt.Stop() // the node goroutine has exited: idleSeen is safe to read
	if len(idleSeen) != 1 || idleSeen[0] != 10 {
		t.Fatalf("idle hook saw deliveries %v, want [10]: it ran before the mailbox drained", idleSeen)
	}
}
