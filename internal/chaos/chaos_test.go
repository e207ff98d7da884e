package chaos

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/sim"
)

func TestNetFaultsPartitionOpenHeal(t *testing.T) {
	f := NewNetFaults(nil, nil)
	r := rand.New(rand.NewSource(1))
	if f.Drop(r, "a", "b") {
		t.Fatal("fault-free overlay dropped a message")
	}
	f.OpenPartition("p", []node.ID{"a"}, []node.ID{"b", "c"})
	if !f.Drop(r, "a", "b") || !f.Drop(r, "c", "a") {
		t.Fatal("partition did not drop cross-side traffic")
	}
	if f.Drop(r, "b", "c") {
		t.Fatal("partition dropped same-side traffic")
	}
	if f.Drop(r, "a", "d") {
		t.Fatal("partition dropped traffic of an unlisted node")
	}
	f.Heal("p")
	if f.Drop(r, "a", "b") {
		t.Fatal("healed partition still dropping")
	}
	f.Heal("p") // healing twice is a no-op
}

func TestNetFaultsLinkFault(t *testing.T) {
	base := netsim.ConstantDelay(time.Millisecond)
	f := NewNetFaults(base, nil)
	r := rand.New(rand.NewSource(1))

	f.SetLink("a", "b", LinkFault{ExtraDelay: 10 * time.Millisecond})
	if d := f.Delay(r, "a", "b"); d != 11*time.Millisecond {
		t.Fatalf("faulted delay = %v, want 11ms", d)
	}
	if d := f.Delay(r, "b", "a"); d != time.Millisecond {
		t.Fatalf("reverse direction delay = %v, want base 1ms", d)
	}

	f.SetLink("a", "b", LinkFault{Loss: 1.0})
	if !f.Drop(r, "a", "b") {
		t.Fatal("loss=1 link did not drop")
	}
	f.SetLink("a", "b", LinkFault{DupProb: 1.0})
	if f.Dup(r, "a", "b") != 1 {
		t.Fatal("dup=1 link did not duplicate")
	}
	if f.Dup(r, "b", "a") != 0 {
		t.Fatal("reverse direction duplicated")
	}
	f.ClearLink("a", "b")
	if f.Drop(r, "a", "b") || f.Dup(r, "a", "b") != 0 {
		t.Fatal("cleared link still faulted")
	}
	// A zero fault clears too.
	f.SetLink("a", "b", LinkFault{Loss: 0.5})
	f.SetLink("a", "b", LinkFault{})
	if f.Drop(rand.New(rand.NewSource(2)), "a", "b") {
		t.Fatal("zero SetLink did not clear the fault")
	}
}

func topo() Topology {
	return Topology{
		Sequencer:   "p00",
		Primaries:   []node.ID{"p01", "p02", "p03"},
		Secondaries: []node.ID{"s00", "s01", "s02", "s03", "s04"},
		Clients:     []node.ID{"c00", "c01"},
	}
}

func genCfg() GenConfig {
	return GenConfig{
		Horizon:       2 * time.Second,
		Crashes:       4,
		SequencerKill: true,
		Partitions:    2,
		LinkFaults:    3,
	}
}

// TestGenerateDeterministic: the same seed yields the exact same schedule.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(42)), topo(), genCfg())
	b := Generate(rand.New(rand.NewSource(42)), topo(), genCfg())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\nvs\n%v", a, b)
	}
	c := Generate(rand.New(rand.NewSource(43)), topo(), genCfg())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateGuardRails checks every seed-generated schedule respects the
// fault-model rails: crashes pair with restarts, partitions heal and only
// isolate secondaries, at most one serving-primary/sequencer down at once,
// and the schedule is time-sorted.
func TestGenerateGuardRails(t *testing.T) {
	tp := topo()
	secondaries := make(map[node.ID]bool)
	for _, id := range tp.Secondaries {
		secondaries[id] = true
	}
	for seed := int64(0); seed < 50; seed++ {
		s := Generate(rand.New(rand.NewSource(seed)), tp, genCfg())
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].At < s[j].At }) {
			t.Fatalf("seed %d: schedule not time-sorted", seed)
		}
		down := make(map[node.ID]bool)
		openParts := make(map[string]bool)
		var primariesDown int
		for _, ev := range s {
			switch ev.Action {
			case ActCrash:
				if down[ev.Target] {
					t.Fatalf("seed %d: %s crashed while already down", seed, ev.Target)
				}
				down[ev.Target] = true
				if !secondaries[ev.Target] {
					primariesDown++
					if primariesDown > 1 {
						t.Fatalf("seed %d: two primaries down at once", seed)
					}
				}
			case ActRestart:
				if !down[ev.Target] {
					t.Fatalf("seed %d: restart of %s without a crash", seed, ev.Target)
				}
				delete(down, ev.Target)
				if !secondaries[ev.Target] {
					primariesDown--
				}
			case ActPartition:
				openParts[ev.Name] = true
				for _, id := range ev.SideB {
					if !secondaries[id] {
						t.Fatalf("seed %d: partition %s isolates non-secondary %s", seed, ev.Name, id)
					}
				}
			case ActHeal:
				if !openParts[ev.Name] {
					t.Fatalf("seed %d: heal of unopened partition %s", seed, ev.Name)
				}
				delete(openParts, ev.Name)
			}
		}
		if len(down) != 0 {
			t.Fatalf("seed %d: schedule ends with nodes still crashed: %v", seed, down)
		}
		if len(openParts) != 0 {
			t.Fatalf("seed %d: schedule ends with open partitions: %v", seed, openParts)
		}
	}
}

// echoNode counts received messages; restarts reset the count (fresh
// instance), which the injector test uses to observe the restart.
type echoNode struct{ got int }

func (n *echoNode) Init(node.Context)          {}
func (n *echoNode) Recv(node.ID, node.Message) { n.got++ }

// pulseNode sends one message to a peer every interval.
type pulseNode struct {
	to       node.ID
	interval time.Duration
}

func (n *pulseNode) Init(ctx node.Context) {
	var tick func()
	tick = func() {
		ctx.Send(n.to, "ping")
		ctx.Post(n.interval, tick)
	}
	ctx.Post(n.interval, tick)
}
func (n *pulseNode) Recv(node.ID, node.Message) {}

// TestInjectorCrashRestartAndFaults drives a two-node sim through a crash,
// a restart, a partition episode, and a duplicating link fault, verifying
// each takes effect at its scheduled virtual time.
func TestInjectorCrashRestartAndFaults(t *testing.T) {
	sched := sim.NewScheduler(1)
	faults := NewNetFaults(netsim.ConstantDelay(time.Millisecond), nil)
	rt := sim.NewRuntime(sched, sim.WithDelay(faults), sim.WithLoss(faults))

	sender := &pulseNode{to: "b", interval: 10 * time.Millisecond}
	first := &echoNode{}
	second := &echoNode{}
	rt.Register("a", sender)
	rt.Register("b", first)
	rt.Start()

	inj := &Injector{
		RT:     rt,
		Faults: faults,
		Fresh: func(id node.ID) (node.Node, error) {
			return second, nil
		},
	}
	inj.Install(Schedule{
		{At: 100 * time.Millisecond, Action: ActCrash, Target: "b"},
		{At: 200 * time.Millisecond, Action: ActRestart, Target: "b"},
		{At: 300 * time.Millisecond, Action: ActPartition, Name: "p",
			SideA: []node.ID{"a"}, SideB: []node.ID{"b"}},
		{At: 400 * time.Millisecond, Action: ActHeal, Name: "p"},
		{At: 500 * time.Millisecond, Action: ActLink, From: "a", To: "b",
			Fault: LinkFault{DupProb: 1.0}},
		{At: 600 * time.Millisecond, Action: ActLinkClear, From: "a", To: "b"},
	})

	sched.RunFor(700 * time.Millisecond)

	// Incarnation 1 received ~10 pulses before the crash; the crash ate the
	// rest of its window.
	if first.got == 0 || first.got > 10 {
		t.Fatalf("first incarnation got %d pulses, want 1..10", first.got)
	}
	// Incarnation 2 lived 200..700ms minus the 100ms partition (~40 pulses)
	// plus ~10 duplicated pulses in the 500..600ms window.
	if second.got < 40 || second.got > 60 {
		t.Fatalf("second incarnation got %d pulses, want 40..60", second.got)
	}
	if rt.Duplicated() == 0 {
		t.Fatal("duplicating link fault injected no duplicates")
	}
	if _, dropped := rt.Stats(); dropped == 0 {
		t.Fatal("partition dropped nothing")
	}
}

// TestScheduleSortStable: equal-At events keep their relative order.
func TestScheduleSortStable(t *testing.T) {
	s := Schedule{
		{At: 10, Action: ActCrash, Target: "x"},
		{At: 5, Action: ActPartition, Name: "p"},
		{At: 5, Action: ActHeal, Name: "p"},
	}
	s.Sort()
	if s[0].Action != ActPartition || s[1].Action != ActHeal || s[2].Action != ActCrash {
		t.Fatalf("unexpected order: %v", s)
	}
}

// TestParseFaults maps each kind name onto its generator rate and rejects
// an unknown kind.
func TestParseFaults(t *testing.T) {
	got, err := ParseFaults(" crash,link ,seqkill,partition,")
	want := GenConfig{Crashes: 3, Partitions: 2, LinkFaults: 3, SequencerKill: true}
	if err != nil || got != want {
		t.Fatalf("ParseFaults(all kinds) = %+v, %v; want %+v", got, err, want)
	}
	if got, err := ParseFaults(""); err != nil || got != (GenConfig{}) {
		t.Fatalf("ParseFaults(\"\") = %+v, %v; want no faults", got, err)
	}
	if _, err := ParseFaults("crash,flood"); err == nil {
		t.Fatal("ParseFaults accepted an unknown kind")
	}
}
