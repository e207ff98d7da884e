// Sharded deployments: N independent primary/secondary group pairs — each
// with its own sequencer, lazy publisher, and commit/read buffers — standing
// side by side on one runtime. DeployShards is the deployment half of the
// scale-out design (DESIGN.md §12); the keyspace partitioning and request
// routing live in internal/shard.
package core

import (
	"errors"
	"fmt"
	"strconv"

	"aqua/internal/client"
	"aqua/internal/node"
)

// ShardedDeployment is N deployments sharing one runtime, indexed by shard.
type ShardedDeployment struct {
	Shards []*Deployment
	// Infos caches each shard's client-visible service description, in
	// shard order — what a shard router is configured with.
	Infos []client.ServiceInfo

	// owner maps every replica ID to its shard index, for dispatching
	// replica-originated traffic (replies, broadcasts) to the right
	// per-shard state. Shard ID sets are disjoint by construction.
	owner map[node.ID]int
}

// DeployShards stands up n independent service deployments on one runtime.
// Shard i's replicas get node IDs prefixed "sh<i>-" — except when n == 1,
// where the prefix stays empty so the single-shard deployment is
// byte-identical to a plain Deploy (same node IDs, hence same per-node rand
// streams and the same event order). When svc.Obs is set and n > 1, each
// shard's gateways record through a per-shard labelled registry view
// ("shard", "<i>"), keeping instrument names distinct in /metrics.
//
// perShard, if non-nil, runs on each shard's config copy before deployment —
// the hook chaos runs use to install per-shard recorders. Clients are not
// deployed here: sharded services front their traffic with a shard.Router
// (or the workload engine), which routes per key.
func DeployShards(rt Runtime, svc ServiceConfig, n int, perShard func(shard int, s *ServiceConfig)) (*ShardedDeployment, error) {
	if n < 1 {
		return nil, errors.New("core: DeployShards needs at least 1 shard")
	}
	sd := &ShardedDeployment{owner: make(map[node.ID]int)}
	for i := 0; i < n; i++ {
		s := svc
		if n > 1 {
			s.NodePrefix = fmt.Sprintf("sh%d-%s", i, svc.NodePrefix)
			s.Obs = svc.Obs.WithLabels("shard", strconv.Itoa(i))
		}
		if perShard != nil {
			perShard(i, &s)
		}
		d, err := Deploy(rt, s, nil)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		sd.Shards = append(sd.Shards, d)
		sd.Infos = append(sd.Infos, d.Info)
		for _, id := range d.PrimaryGroup {
			sd.owner[id] = i
		}
		for _, id := range d.Secondaries {
			sd.owner[id] = i
		}
	}
	return sd, nil
}

// Owner returns the shard index owning the given replica ID (-1 if the ID
// belongs to no shard — e.g. a client node).
func (sd *ShardedDeployment) Owner(id node.ID) int {
	if i, ok := sd.owner[id]; ok {
		return i
	}
	return -1
}

// NewReplicaGateway rebuilds a fresh gateway for a replica of any shard —
// the restart hook a chaos injector needs when faults span shards.
func (sd *ShardedDeployment) NewReplicaGateway(id node.ID) (node.Node, error) {
	i := sd.Owner(id)
	if i < 0 {
		return nil, fmt.Errorf("core: %q is not a replica of any shard", id)
	}
	return sd.Shards[i].NewReplicaGateway(id)
}
