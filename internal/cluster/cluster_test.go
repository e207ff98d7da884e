package cluster

import (
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/node"
	"aqua/internal/qos"
)

const spec = "p00=h1:1,p01=h1:2,p02=h2:1,s00=h2:2,s01=h3:1,c00=h4:1"

func TestParseBasic(t *testing.T) {
	s, err := Parse(spec, "p00,p01,p02", "c00")
	if err != nil {
		t.Fatal(err)
	}
	if s.Sequencer != "p00" {
		t.Fatalf("sequencer = %s", s.Sequencer)
	}
	if len(s.Primaries) != 3 || len(s.Secondaries) != 2 || len(s.Clients) != 1 {
		t.Fatalf("spec = %+v", s)
	}
	if s.Secondaries[0] != "s00" || s.Secondaries[1] != "s01" {
		t.Fatalf("secondaries = %v", s.Secondaries)
	}
	if s.Addresses["p02"] != "h2:1" {
		t.Fatalf("addresses = %v", s.Addresses)
	}
}

func TestParseSortsPrimariesForSequencer(t *testing.T) {
	s, err := Parse(spec, "p02,p00,p01", "c00")
	if err != nil {
		t.Fatal(err)
	}
	if s.Sequencer != "p00" {
		t.Fatalf("sequencer = %s, want lowest ID", s.Sequencer)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name                string
		cluster, prim, clis string
	}{
		{"empty cluster", "", "a,b", ""},
		{"bad entry", "p00", "p00,p01", ""},
		{"duplicate id", "p00=h:1,p00=h:2", "p00,p01", ""},
		{"one primary", spec, "p00", "c00"},
		{"primary not in cluster", spec, "p00,zz", "c00"},
		{"client not in cluster", spec, "p00,p01", "nope"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.cluster, tt.prim, tt.clis); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestParseAddrs(t *testing.T) {
	addrs, err := ParseAddrs(" c00=h4:1, ,c01=h4:2")
	if err != nil || len(addrs) != 2 || addrs["c01"] != "h4:2" {
		t.Fatalf("ParseAddrs = %v, %v", addrs, err)
	}
	if addrs, err := ParseAddrs(""); err != nil || len(addrs) != 0 {
		t.Fatalf("empty ParseAddrs = %v, %v", addrs, err)
	}
	for _, bad := range []string{"c00", "=h:1", "c00=", "c00=h:1,c00=h:2"} {
		if _, err := ParseAddrs(bad); err == nil {
			t.Fatalf("ParseAddrs(%q) accepted", bad)
		}
	}
}

func TestSplitIDs(t *testing.T) {
	got := SplitIDs(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SplitIDs = %v", got)
	}
	if len(SplitIDs("")) != 0 {
		t.Fatal("empty split should be empty")
	}
	if !got.Contains("b") || got.Contains("z") {
		t.Fatal("Contains wrong")
	}
	if s := got.Strings(); len(s) != 3 || s[0] != "a" {
		t.Fatalf("Strings = %v", s)
	}
}

func TestPeersForExcludesHosted(t *testing.T) {
	s, _ := Parse(spec, "p00,p01,p02", "c00")
	peers := s.PeersFor(IDList{"p00", "p01"})
	if _, ok := peers["p00"]; ok {
		t.Fatal("hosted node in peer map")
	}
	if len(peers) != 4 {
		t.Fatalf("peers = %v", peers)
	}
}

func TestServiceInfo(t *testing.T) {
	s, _ := Parse(spec, "p00,p01,p02", "c00")
	info := s.ServiceInfo(3 * time.Second)
	if info.Sequencer != "p00" || info.LazyInterval != 3*time.Second || len(info.Secondaries) != 2 {
		t.Fatalf("info = %+v", info)
	}
}

// registrar records registrations without running anything.
type registrar struct{ ids []node.ID }

func (r *registrar) Register(id node.ID, _ node.Node) { r.ids = append(r.ids, id) }

// specDeployment wires a parsed spec the way aquad does: the spec's clients
// are named, and only those in clients get a gateway built for them.
func specDeployment(t *testing.T, s *Spec, clients []core.ClientConfig) *core.Deployment {
	t.Helper()
	d, err := core.NewDeployment(core.ServiceConfig{
		LazyInterval: time.Second,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
		ExtraClients: s.Clients,
	}, s.ServiceInfo(time.Second), clients)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewReplicaValidation(t *testing.T) {
	s, _ := Parse(spec, "p00,p01,p02", "c00")
	d := specDeployment(t, s, nil)
	var rt registrar
	if err := d.Host(&rt, "zz"); err == nil {
		t.Fatal("unknown replica accepted")
	}
	if err := d.Host(&rt, "c00"); err == nil {
		t.Fatal("client accepted as replica")
	}
	if err := d.Host(&rt, "s00"); err != nil || d.Replicas["s00"] == nil || len(rt.ids) != 1 {
		t.Fatalf("Host(s00) = %v, registered %v", err, rt.ids)
	}
}

func TestNewClientValidation(t *testing.T) {
	s, _ := Parse(spec, "p00,p01,p02", "c00")
	if s.Clients.Contains("p00") || !s.Clients.Contains("c00") {
		t.Fatalf("clients = %v", s.Clients)
	}
	qspec := qos.Spec{Staleness: 1, Deadline: time.Second, MinProb: 0.5}
	d := specDeployment(t, s, []core.ClientConfig{{ID: "c00", Spec: qspec, Methods: qos.NewMethods("Get")}})
	var rt registrar
	if err := d.Host(&rt, "c00"); err != nil || d.Clients["c00"] == nil {
		t.Fatalf("Host(c00) = %v", err)
	}
	if len(d.Replicas) != 0 || len(rt.ids) != 1 {
		t.Fatalf("registered %v, replicas %d", rt.ids, len(d.Replicas))
	}
}
