package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/tcpnet"
)

// TestClusterEndToEndOverTCP exercises the path the aquad and aquacli
// binaries run: parse a cluster spec, build each process's replicas with
// core.NewDeployment + Host and the client with core.ClientGatewayConfig,
// host them in separate live runtimes bridged by real TCP, and complete a
// write+read under a QoS spec. Replica names are arbitrary.
func TestClusterEndToEndOverTCP(t *testing.T) {
	// Three "processes": two replica hosts and one client host, with
	// ephemeral ports discovered after listen.
	type proc struct {
		rt *live.Runtime
		tr *tcpnet.Transport
	}
	mkProc := func() *proc {
		rt := live.NewRuntime()
		tr, err := tcpnet.New(rt, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetRemote(tr.Send)
		return &proc{rt: rt, tr: tr}
	}
	procA, procB, procC := mkProc(), mkProc(), mkProc()
	defer func() {
		procA.tr.Close()
		procB.tr.Close()
		procC.tr.Close()
	}()

	// Cluster spec written exactly as the -cluster flag would be.
	hostOf := map[node.ID]*proc{
		"alpha": procA, "beta": procA,
		"gamma": procB, "zeta": procB,
		"c00": procC,
	}
	specStr := ""
	for id, p := range hostOf {
		if specStr != "" {
			specStr += ","
		}
		specStr += fmt.Sprintf("%s=%s", id, p.tr.Addr())
	}
	spec, err := Parse(specStr, "gamma,alpha,beta", "c00")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sequencer != "alpha" || len(spec.Secondaries) != 1 || spec.Secondaries[0] != "zeta" {
		t.Fatalf("spec = %+v", spec)
	}

	// Every process maps all non-local peers.
	for _, p := range hostOf {
		for other, op := range hostOf {
			if op != p {
				p.tr.AddPeer(other, op.tr.Addr())
			}
		}
	}

	const lazy = 500 * time.Millisecond
	d, err := core.NewDeployment(core.ServiceConfig{
		LazyInterval: lazy,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
		FastReads:    true,
		ExtraClients: spec.Clients,
	}, spec.ServiceInfo(lazy), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Host(procA.rt, "alpha", "beta"); err != nil {
		t.Fatal(err)
	}
	if err := d.Host(procB.rt, "gamma", "zeta"); err != nil {
		t.Fatal(err)
	}

	cfg := core.ClientGatewayConfig(core.ServiceConfig{}, core.ClientConfig{
		Spec:    qos.Spec{Staleness: 0, Deadline: time.Second, MinProb: 0.5},
		Methods: qos.NewMethods("Get", "Version"),
	})
	cfg.Service = spec.ServiceInfo(lazy)
	cgw := client.New(cfg)
	var got atomic.Value
	procC.rt.Register("c00", &drivenClient{gw: cgw, run: func(ctx node.Context) {
		ctx.SetTimer(50*time.Millisecond, func() {
			cgw.Invoke("Set", []byte("k=over-tcp"), func(client.Result) {
				cgw.Invoke("Get", []byte("k"), func(r client.Result) {
					got.Store(r)
				})
			})
		})
	}})

	procA.rt.Start()
	procB.rt.Start()
	procC.rt.Start()
	defer procA.rt.Stop()
	defer procB.rt.Stop()
	defer procC.rt.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && got.Load() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	r, ok := got.Load().(client.Result)
	if !ok {
		t.Fatal("read never completed over TCP")
	}
	if r.Err != "" || string(r.Payload) != "over-tcp" {
		t.Fatalf("read = %+v", r)
	}
}

// drivenClient mirrors the cmd binaries' pattern of running the workload in
// the gateway's node context.
type drivenClient struct {
	gw  *client.Gateway
	run func(node.Context)
}

func (d *drivenClient) Init(ctx node.Context) {
	d.gw.Init(ctx)
	d.run(ctx)
}

func (d *drivenClient) Recv(from node.ID, m node.Message) { d.gw.Recv(from, m) }
