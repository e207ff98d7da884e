// Package cluster parses the flag-level cluster description shared by the
// aquad and aquacli binaries and turns it into gateway configurations: who
// the replicas and clients are, where each process listens, which primary
// is the sequencer, and which peers a given process must dial.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aqua/internal/app"
	"aqua/internal/client"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/replica"
	"aqua/internal/wal"
)

// Observability bundles the optional metrics registry and trace sink a
// process attaches to the gateways it hosts. The zero value disables both.
type Observability struct {
	Obs    *obs.Registry
	Tracer *obs.Tracer
}

// IDList is a parsed, order-preserving list of node IDs.
type IDList []node.ID

// Strings converts back for display.
func (l IDList) Strings() []string {
	out := make([]string, len(l))
	for i, id := range l {
		out[i] = string(id)
	}
	return out
}

// Contains reports membership.
func (l IDList) Contains(id node.ID) bool {
	for _, x := range l {
		if x == id {
			return true
		}
	}
	return false
}

// SplitIDs parses a comma-separated ID list, ignoring empty entries and
// surrounding spaces.
func SplitIDs(s string) IDList {
	var out IDList
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, node.ID(part))
		}
	}
	return out
}

// Spec is a parsed cluster description.
type Spec struct {
	// Addresses maps every node ID (replicas and clients) to the TCP
	// address of the process hosting it.
	Addresses map[node.ID]string
	// Primaries is the primary group, sorted; Primaries[0] is the
	// sequencer.
	Primaries IDList
	// Secondaries is every replica in Addresses that is neither primary
	// nor client, sorted.
	Secondaries IDList
	// Clients lists client gateway IDs.
	Clients IDList
	// Sequencer is the initial sequencer.
	Sequencer node.ID
}

// Parse builds a Spec from the -cluster, -primaries and -clients flags.
func Parse(clusterSpec, primaries, clients string) (*Spec, error) {
	if strings.TrimSpace(clusterSpec) == "" {
		return nil, fmt.Errorf("cluster: -cluster spec is required")
	}
	s := &Spec{Addresses: make(map[node.ID]string)}
	for _, part := range strings.Split(clusterSpec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad entry %q (want id=host:port)", part)
		}
		if _, dup := s.Addresses[node.ID(id)]; dup {
			return nil, fmt.Errorf("cluster: duplicate id %q", id)
		}
		s.Addresses[node.ID(id)] = addr
	}

	s.Primaries = SplitIDs(primaries)
	if len(s.Primaries) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 primaries (sequencer + 1 serving)")
	}
	sort.Slice(s.Primaries, func(i, j int) bool { return s.Primaries[i] < s.Primaries[j] })
	s.Sequencer = s.Primaries[0]
	s.Clients = SplitIDs(clients)

	for _, id := range s.Primaries {
		if _, ok := s.Addresses[id]; !ok {
			return nil, fmt.Errorf("cluster: primary %q missing from -cluster", id)
		}
	}
	for _, id := range s.Clients {
		if _, ok := s.Addresses[id]; !ok {
			return nil, fmt.Errorf("cluster: client %q missing from -cluster", id)
		}
	}
	for id := range s.Addresses {
		if !s.Primaries.Contains(id) && !s.Clients.Contains(id) {
			s.Secondaries = append(s.Secondaries, id)
		}
	}
	sort.Slice(s.Secondaries, func(i, j int) bool { return s.Secondaries[i] < s.Secondaries[j] })
	return s, nil
}

// PeersFor returns the dial map for a process hosting the given IDs: every
// other node's address.
func (s *Spec) PeersFor(hosted IDList) map[node.ID]string {
	peers := make(map[node.ID]string, len(s.Addresses))
	for id, addr := range s.Addresses {
		if !hosted.Contains(id) {
			peers[id] = addr
		}
	}
	return peers
}

// ServiceInfo builds the client-side view of the service.
func (s *Spec) ServiceInfo(lazy time.Duration) client.ServiceInfo {
	return client.ServiceInfo{
		Primaries:    s.Primaries,
		Secondaries:  s.Secondaries,
		Sequencer:    s.Sequencer,
		LazyInterval: lazy,
	}
}

// ReplicaOptions are the durability and ordering knobs a process can arm
// on the replicas it hosts. The zero value is the legacy configuration:
// no WAL, per-sequencer GSN ordering.
type ReplicaOptions struct {
	// Media, when non-nil, equips the replica with a WAL + snapshot store
	// over it; a restart of the process then recovers from media instead
	// of re-fetching history.
	Media wal.Media
	// SnapshotEvery, when positive, is the WAL compaction threshold in log
	// records. 0 selects the default rule: at least 256 records and at
	// least as many log bytes as the snapshot cell being replaced. See
	// replica.Config.
	SnapshotEvery int
	// ReplicatedAssign enables majority-floor replicated GSN ordering.
	ReplicatedAssign bool
}

// NewReplica builds a replica gateway config for one hosted ID.
func (s *Spec) NewReplica(id node.ID, lazy time.Duration, application app.Application, o Observability) (*replica.Gateway, error) {
	return s.NewReplicaOpts(id, lazy, application, o, ReplicaOptions{})
}

// NewReplicaOpts is NewReplica with durability and ordering options.
func (s *Spec) NewReplicaOpts(id node.ID, lazy time.Duration, application app.Application, o Observability, opts ReplicaOptions) (*replica.Gateway, error) {
	if _, ok := s.Addresses[id]; !ok {
		return nil, fmt.Errorf("cluster: unknown replica %q", id)
	}
	if s.Clients.Contains(id) {
		return nil, fmt.Errorf("cluster: %q is a client, not a replica", id)
	}
	var store *wal.Store
	if opts.Media != nil {
		store = wal.NewStore(opts.Media)
	}
	return replica.New(replica.Config{
		Primary:          s.Primaries.Contains(id),
		PrimaryGroup:     s.Primaries,
		Secondaries:      s.Secondaries,
		Clients:          s.Clients,
		Group:            group.DefaultConfig(),
		LazyInterval:     lazy,
		Durable:          store,
		SnapshotEvery:    opts.SnapshotEvery,
		ReplicatedAssign: opts.ReplicatedAssign,
		App:              application,
		Obs:              o.Obs,
		Tracer:           o.Tracer,
	}), nil
}

// NewClient builds a client gateway for one client ID.
func (s *Spec) NewClient(id node.ID, spec qos.Spec, methods *qos.Methods, lazy time.Duration, o Observability) (*client.Gateway, error) {
	if !s.Clients.Contains(id) {
		return nil, fmt.Errorf("cluster: %q is not declared in -clients", id)
	}
	gcfg := group.DefaultConfig()
	gcfg.HeartbeatInterval = 0
	gcfg.FailTimeout = 0
	return client.New(client.Config{
		Service: s.ServiceInfo(lazy),
		Spec:    spec,
		Methods: methods,
		Group:   gcfg,
		Obs:     o.Obs,
		Tracer:  o.Tracer,
	}), nil
}
