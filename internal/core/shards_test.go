package core

import (
	"testing"
	"time"

	"aqua/internal/node"
	"aqua/internal/obs"
)

func TestDeployShardsTopology(t *testing.T) {
	_, rt := newSim(30)
	svc := testService(3, 2, time.Second)
	hooked := 0
	sd, err := DeployShards(rt, svc, 3, func(shard int, s *ServiceConfig) {
		hooked++
		if shard > 0 && s.NodePrefix == "" {
			t.Errorf("shard %d has no node prefix", shard)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked != 3 || len(sd.Shards) != 3 || len(sd.Infos) != 3 {
		t.Fatalf("deployed %d shards, hook ran %d times", len(sd.Shards), hooked)
	}
	// Each shard is a full deployment with its own prefixed sequencer.
	for i, want := range []node.ID{"sh0-p00", "sh1-p00", "sh2-p00"} {
		d := sd.Shards[i]
		if d.Sequencer != want {
			t.Fatalf("shard %d sequencer = %s, want %s", i, d.Sequencer, want)
		}
		if len(d.PrimaryGroup) != 3 || len(d.Secondaries) != 2 {
			t.Fatalf("shard %d topology = %+v", i, d)
		}
		// Every replica maps back to its shard.
		for _, id := range append(append([]node.ID(nil), d.PrimaryGroup...), d.Secondaries...) {
			if got := sd.Owner(id); got != i {
				t.Fatalf("Owner(%s) = %d, want %d", id, got, i)
			}
		}
	}
	if sd.Owner("c00") != -1 {
		t.Fatal("non-replica ID mapped to a shard")
	}
}

func TestDeployShardsSingleKeepsPlainIDs(t *testing.T) {
	_, rt := newSim(31)
	sd, err := DeployShards(rt, testService(3, 2, time.Second), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := sd.Shards[0]
	if d.Sequencer != "p00" || d.Secondaries[0] != "s00" {
		t.Fatalf("single-shard IDs prefixed: seq=%s sec=%s", d.Sequencer, d.Secondaries[0])
	}
}

// TestDeployShardsObsLabelsDistinct pins the registry-collision fix: two
// deployments on one runtime sharing one registry record through per-shard
// labelled views, so every emitted sample carries its shard label and the
// series stay distinct.
func TestDeployShardsObsLabelsDistinct(t *testing.T) {
	s, rt := newSim(32)
	reg := obs.NewRegistry()
	svc := testService(2, 1, 300*time.Millisecond)
	svc.Obs = reg
	if _, err := DeployShards(rt, svc, 2, nil); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	s.RunFor(2 * time.Second)

	seen := map[string]bool{}
	for _, sample := range reg.Snapshot() {
		labels := map[string]string{}
		for i := 0; i+1 < len(sample.Labels); i += 2 {
			labels[sample.Labels[i]] = sample.Labels[i+1]
		}
		v, ok := labels["shard"]
		if !ok {
			t.Fatalf("sample %s %v lacks a shard label", sample.Name, sample.Labels)
		}
		seen[v] = true
	}
	if !seen["0"] || !seen["1"] {
		t.Fatalf("shard labels seen = %v, want both 0 and 1", seen)
	}
}
