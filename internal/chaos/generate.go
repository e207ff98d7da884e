package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"aqua/internal/node"
)

// Topology tells the generator which role each node plays, because the
// guard rails are role-aware: the sequencer only dies via SequencerKill,
// serving primaries never all die at once, and partitions only isolate
// secondaries.
type Topology struct {
	Sequencer   node.ID
	Primaries   []node.ID // serving primaries (sequencer excluded)
	Secondaries []node.ID
	Clients     []node.ID
}

// GenConfig parameterizes the random schedule generator.
type GenConfig struct {
	// Horizon is the window within which faults begin; repairs (restart,
	// heal, link clear) may land past it.
	Horizon time.Duration
	// Crashes is the number of crash→restart pairs on non-sequencer
	// replicas.
	Crashes int
	// SequencerKill adds one sequencer crash→restart, forcing a takeover
	// and, after the restart, the deposed leader's re-join.
	SequencerKill bool
	// Partitions is the number of partition open→heal pairs. Each isolates
	// one or two secondaries from everyone else.
	Partitions int
	// LinkFaults is the number of degraded-link episodes (extra delay,
	// jitter, loss, duplication) between replica pairs.
	LinkFaults int
}

// ParseFaults maps a comma list of fault kinds — crash, partition, link,
// seqkill — onto generator fault rates; the Horizon is left to the caller.
func ParseFaults(spec string) (GenConfig, error) {
	var cfg GenConfig
	for _, kind := range strings.Split(spec, ",") {
		switch strings.TrimSpace(kind) {
		case "":
		case "crash":
			cfg.Crashes = 3
		case "partition":
			cfg.Partitions = 2
		case "link":
			cfg.LinkFaults = 3
		case "seqkill":
			cfg.SequencerKill = true
		default:
			return cfg, fmt.Errorf("unknown fault kind %q (want crash, partition, link, seqkill)", kind)
		}
	}
	return cfg, nil
}

type span struct{ from, to time.Duration }

func overlaps(spans []span, from, to time.Duration) bool {
	for _, s := range spans {
		if from < s.to && s.from < to {
			return true
		}
	}
	return false
}

// quantize rounds fault times to whole milliseconds, purely for legible
// traces; determinism does not depend on it.
func quantize(d time.Duration) time.Duration {
	return d - d%time.Millisecond
}

// Generate builds a random fault schedule from r, which must come from the
// run's deterministic seed (e.g. rand.New(rand.NewSource(seed))) so the
// same seed always yields the same schedule.
//
// Guard rails keep the scenario inside the protocol's fault model: at most
// one serving primary (or the sequencer) is down at any moment, the
// sequencer dies only through SequencerKill, every crash is paired with a
// restart, every partition heals, and partitions only isolate secondaries —
// an isolated serving primary would elect itself sequencer and, on heal,
// rejoin via leader step-down, a scenario the takeover protocol handles but
// whose client-visible guarantees the paper does not define.
func Generate(r *rand.Rand, topo Topology, cfg GenConfig) Schedule {
	if cfg.Horizon <= 0 {
		cfg.Horizon = time.Second
	}
	// Each fault lasts between a tenth of the horizon and that plus a
	// quarter of it.
	minDown := cfg.Horizon / 10
	maxDown := minDown + cfg.Horizon/4

	dur := func() time.Duration {
		return quantize(minDown + time.Duration(r.Int63n(int64(maxDown-minDown)+1)))
	}
	begin := func() time.Duration {
		return quantize(time.Duration(r.Int63n(int64(cfg.Horizon))))
	}

	var s Schedule
	busy := make(map[node.ID][]span) // per-node downtime
	var primaryDown []span           // any serving-primary/sequencer downtime
	const placementAttempts = 16     // rejection sampling bound per fault
	grace := maxDown                 // slack around a sequencer kill for the takeover round

	if cfg.SequencerKill {
		// Land the kill mid-run so there is traffic both before and after.
		at := quantize(cfg.Horizon/4 + time.Duration(r.Int63n(int64(cfg.Horizon/2)+1)))
		d := dur()
		s = append(s,
			Event{At: at, Action: ActCrash, Target: topo.Sequencer},
			Event{At: at + d, Action: ActRestart, Target: topo.Sequencer},
		)
		busy[topo.Sequencer] = append(busy[topo.Sequencer], span{at, at + d})
		primaryDown = append(primaryDown, span{at - grace, at + d + grace})
	}

	for i := 0; i < cfg.Crashes; i++ {
		for attempt := 0; attempt < placementAttempts; attempt++ {
			var target node.ID
			primary := false
			// Bias crashes toward secondaries; serving primaries carry the
			// commit stream, and the ≤1-down rail makes them harder to place.
			if len(topo.Secondaries) > 0 && (len(topo.Primaries) == 0 || r.Float64() < 0.7) {
				target = topo.Secondaries[r.Intn(len(topo.Secondaries))]
			} else if len(topo.Primaries) > 0 {
				target = topo.Primaries[r.Intn(len(topo.Primaries))]
				primary = true
			} else {
				break
			}
			at, d := begin(), dur()
			if overlaps(busy[target], at, at+d) {
				continue
			}
			if primary && overlaps(primaryDown, at, at+d) {
				continue
			}
			s = append(s,
				Event{At: at, Action: ActCrash, Target: target},
				Event{At: at + d, Action: ActRestart, Target: target},
			)
			busy[target] = append(busy[target], span{at, at + d})
			if primary {
				primaryDown = append(primaryDown, span{at, at + d})
			}
			break
		}
	}

	for i := 0; i < cfg.Partitions && len(topo.Secondaries) > 0; i++ {
		k := 1
		if len(topo.Secondaries) > 2 && r.Intn(2) == 1 {
			k = 2
		}
		perm := r.Perm(len(topo.Secondaries))
		isolated := make(map[node.ID]bool, k)
		sideB := make([]node.ID, 0, k)
		for _, idx := range perm[:k] {
			sideB = append(sideB, topo.Secondaries[idx])
			isolated[topo.Secondaries[idx]] = true
		}
		sideA := make([]node.ID, 0, 1+len(topo.Primaries)+len(topo.Secondaries)+len(topo.Clients))
		sideA = append(sideA, topo.Sequencer)
		sideA = append(sideA, topo.Primaries...)
		for _, id := range topo.Secondaries {
			if !isolated[id] {
				sideA = append(sideA, id)
			}
		}
		sideA = append(sideA, topo.Clients...)
		at, d := begin(), dur()
		name := fmt.Sprintf("part%02d", i)
		s = append(s,
			Event{At: at, Action: ActPartition, Name: name, SideA: sideA, SideB: sideB},
			Event{At: at + d, Action: ActHeal, Name: name},
		)
	}

	replicas := make([]node.ID, 0, 1+len(topo.Primaries)+len(topo.Secondaries))
	replicas = append(replicas, topo.Sequencer)
	replicas = append(replicas, topo.Primaries...)
	replicas = append(replicas, topo.Secondaries...)
	for i := 0; i < cfg.LinkFaults && len(replicas) >= 2; i++ {
		a := r.Intn(len(replicas))
		b := r.Intn(len(replicas) - 1)
		if b >= a {
			b++
		}
		lf := LinkFault{
			ExtraDelay: quantize(time.Duration(r.Int63n(int64(5 * time.Millisecond)))),
			Jitter:     quantize(time.Duration(r.Int63n(int64(4 * time.Millisecond)))),
			Loss:       0.3 * r.Float64(),
			DupProb:    0.5 * r.Float64(),
		}
		at, d := begin(), dur()
		s = append(s,
			Event{At: at, Action: ActLink, From: replicas[a], To: replicas[b], Fault: lf},
			Event{At: at + d, Action: ActLinkClear, From: replicas[a], To: replicas[b]},
		)
	}

	s.Sort()
	return s
}
