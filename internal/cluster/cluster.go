// Package cluster parses the flag-level cluster description shared by the
// aquad and aquacli binaries: who the replicas and clients are, where each
// process listens, which primary is the sequencer, and which peers a given
// process must dial. Building the gateways is package core's job.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aqua/internal/client"
	"aqua/internal/node"
)

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

// ParseAddrs parses a comma-separated id=host:port list — the -cluster flag —
// into an address map. The empty list is an empty map.
func ParseAddrs(spec string) (map[node.ID]string, error) {
	addrs := make(map[node.ID]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad entry %q (want id=host:port)", part)
		}
		if _, dup := addrs[node.ID(id)]; dup {
			return nil, fmt.Errorf("cluster: duplicate id %q", id)
		}
		addrs[node.ID(id)] = addr
	}
	return addrs, nil
}

// Parse builds a Spec from the -cluster, -primaries and -clients flags.
func Parse(clusterSpec, primaries, clients string) (*Spec, error) {
	if strings.TrimSpace(clusterSpec) == "" {
		return nil, fmt.Errorf("cluster: -cluster spec is required")
	}
	addrs, err := ParseAddrs(clusterSpec)
	if err != nil {
		return nil, err
	}
	s := &Spec{Addresses: addrs}
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
