package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aqua/internal/node"
	"aqua/internal/sim"
)

// Action identifies a fault event's effect.
type Action uint8

// Fault actions. Crash/Restart target one replica; Partition/Heal manage a
// named partition; Link/LinkClear manage a symmetric link fault.
const (
	ActCrash Action = iota + 1
	ActRestart
	ActPartition
	ActHeal
	ActLink
	ActLinkClear
	// ActRestartRecover restarts the target from its durable state (WAL +
	// snapshot) instead of a blank slate. Appended so existing action values
	// stay stable.
	ActRestartRecover
)

func (a Action) String() string {
	switch a {
	case ActCrash:
		return "crash"
	case ActRestart:
		return "restart"
	case ActPartition:
		return "partition"
	case ActHeal:
		return "heal"
	case ActLink:
		return "link"
	case ActLinkClear:
		return "link_clear"
	case ActRestartRecover:
		return "restart_recover"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Event is one timed fault.
type Event struct {
	// At is virtual time since the run's start.
	At time.Duration
	// Action selects which remaining fields apply.
	Action Action
	// Target is the replica to crash or restart.
	Target node.ID
	// Name identifies a partition across its open/heal pair.
	Name string
	// SideA and SideB are the partition's sides.
	SideA, SideB []node.ID
	// From and To name the faulted link; the injector applies the fault in
	// both directions.
	From, To node.ID
	// Fault is the link degradation to install.
	Fault LinkFault
}

// String renders the event for traces; the format is deterministic.
func (e Event) String() string {
	switch e.Action {
	case ActCrash, ActRestart, ActRestartRecover:
		return fmt.Sprintf("%s %s", e.Action, e.Target)
	case ActPartition:
		return fmt.Sprintf("partition %s open {%s | %s}", e.Name, joinIDs(e.SideA), joinIDs(e.SideB))
	case ActHeal:
		return fmt.Sprintf("partition %s heal", e.Name)
	case ActLink:
		return fmt.Sprintf("link %s<>%s delay=%s jitter=%s loss=%.2f dup=%.2f",
			e.From, e.To, e.Fault.ExtraDelay, e.Fault.Jitter, e.Fault.Loss, e.Fault.DupProb)
	case ActLinkClear:
		return fmt.Sprintf("link %s<>%s clear", e.From, e.To)
	}
	return e.Action.String()
}

func joinIDs(ids []node.ID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}

// Schedule is a list of fault events. Order matters only among events with
// equal At (they execute in slice order); Sort arranges the slice by time
// while preserving that tiebreak.
type Schedule []Event

// Sort orders the schedule by event time, keeping the relative order of
// simultaneous events.
func (s Schedule) Sort() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
}

// Observer receives fault notifications as they are injected; the check
// package's Recorder satisfies it. A nil Observer is allowed.
type Observer interface {
	Crash(node.ID)
	Restart(node.ID)
	Fault(note string)
}

// Injector executes a Schedule against a simulation run.
type Injector struct {
	// RT is the simulation runtime faults act on.
	RT *sim.Runtime
	// Faults is the mutable network-fault overlay; the runtime must have
	// been built with it as both delay and loss model for partition and
	// link events to have any effect.
	Faults *NetFaults
	// Fresh builds the replacement node for a restart (state lost; recovery
	// is the protocol's job). Required if the schedule contains restarts.
	Fresh func(id node.ID) (node.Node, error)
	// FreshRecovered builds the replacement node for a restart_recover
	// event: the node keeps its durable media and replays snapshot + WAL at
	// Init. Required if the schedule contains restart_recover events.
	FreshRecovered func(id node.ID) (node.Node, error)
	// Obs, if non-nil, is notified of every injected fault.
	Obs Observer
}

// Install posts every event of s onto the runtime's scheduler, relative to
// the current virtual time. Call it before the run starts; the events fire
// as the clock reaches them. Equal-time events fire in schedule order (the
// scheduler breaks ties by posting order).
func (in *Injector) Install(s Schedule) {
	sched := in.RT.Scheduler()
	for i := range s {
		ev := s[i]
		sched.Post(ev.At, func() { in.apply(ev) })
	}
}

func (in *Injector) apply(ev Event) {
	switch ev.Action {
	case ActCrash:
		in.RT.Crash(ev.Target)
		if in.Obs != nil {
			in.Obs.Crash(ev.Target)
		}
	case ActRestart, ActRestartRecover:
		fresh, field := in.Fresh, "Fresh"
		if ev.Action == ActRestartRecover {
			fresh, field = in.FreshRecovered, "FreshRecovered"
		}
		if fresh == nil {
			panic(fmt.Sprintf("chaos: schedule contains a %s but Injector.%s is nil", ev.Action, field))
		}
		n, err := fresh(ev.Target)
		if err != nil {
			panic(fmt.Sprintf("chaos: %s %s: %v", ev.Action, ev.Target, err))
		}
		// Notify the observer before Init runs: Init-time recorder events
		// (the durable path's Recover) must land in the new incarnation.
		if in.Obs != nil {
			in.Obs.Restart(ev.Target)
		}
		in.RT.Restart(ev.Target, n)
	case ActPartition:
		in.Faults.OpenPartition(ev.Name, ev.SideA, ev.SideB)
		in.note(ev)
	case ActHeal:
		in.Faults.Heal(ev.Name)
		in.note(ev)
	case ActLink:
		in.Faults.SetLink(ev.From, ev.To, ev.Fault)
		in.Faults.SetLink(ev.To, ev.From, ev.Fault)
		in.note(ev)
	case ActLinkClear:
		in.Faults.ClearLink(ev.From, ev.To)
		in.Faults.ClearLink(ev.To, ev.From)
		in.note(ev)
	default:
		panic(fmt.Sprintf("chaos: unknown action %v", ev.Action))
	}
}

func (in *Injector) note(ev Event) {
	if in.Obs != nil {
		in.Obs.Fault(ev.String())
	}
}
