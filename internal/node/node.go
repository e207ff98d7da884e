// Package node defines the actor model that every protocol participant in
// this repository is written against: a Node receives messages and timer
// callbacks, one at a time, through a Context supplied by a runtime.
//
// Two runtimes implement Context: the deterministic discrete-event simulator
// (internal/sim) used by the experiments and integration tests, and the
// real-time goroutine runtime (internal/live) used by the example binaries.
// Because both runtimes serialize all callbacks delivered to a given node,
// protocol code needs no locking and runs unchanged on either runtime. The
// one callback whose timing differs is OnIdle: the live runtime runs it
// whenever a node's mailbox drains, while the simulator never does, so code
// that registers one must stay correct (if slower) without it.
package node

import (
	"math/rand"
	"time"
)

// ID identifies a node (a replica gateway, a client gateway, or the
// sequencer) within one runtime instance.
type ID string

// Message is any value exchanged between nodes. Concrete message types are
// plain structs; the live TCP transport additionally needs a wire tag and
// an encode/decode case for each one (internal/tcpnet/wire.go).
type Message interface{}

// CancelFunc cancels a pending timer. Calling it after the timer fired, or
// calling it twice, is a no-op.
type CancelFunc func()

// Context is the interface a runtime presents to a node. All methods must be
// called only from within the node's own callbacks (Init, Recv, or a timer
// function); runtimes do not make them safe for use from other goroutines.
type Context interface {
	// ID returns the identity this node was registered under.
	ID() ID

	// Now returns the current time: virtual time in the simulator, wall
	// clock time in the live runtime. Only differences between Now values
	// are meaningful to protocol code.
	Now() time.Time

	// Send delivers m to the node registered under 'to'. Delivery is
	// asynchronous and, depending on the configured network model, may be
	// delayed, dropped, or reordered relative to other Sends.
	Send(to ID, m Message)

	// SetTimer schedules f to run in this node's context after d. The
	// returned CancelFunc prevents f from running if invoked first.
	SetTimer(d time.Duration, f func()) CancelFunc

	// Post schedules f like SetTimer but returns no cancel handle. It is
	// the allocation-lean path for fire-and-forget timers (periodic ticks,
	// service delays, think times): the simulator runs it without the
	// per-timer cancel closure SetTimer must allocate.
	Post(d time.Duration, f func())

	// OnIdle registers f to run in this node's context whenever the runtime
	// finds the node's mailbox empty after delivering work to it; a later
	// call replaces f, and nil removes it. It is a latency hint, not an
	// event: the live runtime runs f after each drained batch of callbacks,
	// the simulator never runs it (in virtual time a timer alone paces the
	// work f would hurry along), so f must only do early what a timer the
	// node armed itself would do anyway.
	OnIdle(f func())

	// Rand returns this node's private random source. The simulator seeds
	// it deterministically from the run seed and the node ID.
	Rand() *rand.Rand

	// Logf records a diagnostic message tagged with the node ID and time.
	Logf(format string, args ...interface{})
}

// Node is a protocol participant. A runtime calls Init exactly once, before
// any Recv, and then Recv once per delivered message. Both run in the node's
// single logical thread of control.
type Node interface {
	Init(ctx Context)
	Recv(from ID, m Message)
}

// FuncNode adapts plain functions to the Node interface; useful in tests.
type FuncNode struct {
	OnInit func(ctx Context)
	OnRecv func(from ID, m Message)
}

// Init implements Node.
func (f *FuncNode) Init(ctx Context) {
	if f.OnInit != nil {
		f.OnInit(ctx)
	}
}

// Recv implements Node.
func (f *FuncNode) Recv(from ID, m Message) {
	if f.OnRecv != nil {
		f.OnRecv(from, m)
	}
}

var _ Node = (*FuncNode)(nil)
