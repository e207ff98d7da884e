// Command aquad hosts replica gateways of a replicated service in a single OS
// process, speaking the protocol over TCP. Several aquad processes plus
// aquacli form a real distributed deployment of the framework — the same
// gateways the simulator runs, built by the same package core, on real
// sockets.
//
// Topology is described by a flag-friendly cluster spec shared by every
// process:
//
//	-cluster "p00=127.0.0.1:7100,p01=127.0.0.1:7101,p02=127.0.0.1:7102,s00=127.0.0.1:7103"
//	-primaries "p00,p01,p02"        # p00 (lowest ID) is the sequencer
//	-clients "c00"                  # client IDs that will connect
//	-host "p01,p02"                 # which replicas THIS process hosts
//	-listen "127.0.0.1:7101"        # this process's TCP endpoint
//
// Example (three terminals):
//
//	aquad -listen 127.0.0.1:7100 -host p00,p01 ...
//	aquad -listen 127.0.0.1:7200 -host p02,s00 ...
//	aquacli -id c00 -listen 127.0.0.1:7300 ...
//
// Alternatively, -shards N stands up a self-contained N-shard service in
// this one process — every shard's sequencer, primaries, and secondaries
// as concurrent goroutine-backed nodes on the parallel runtime. In that
// mode -cluster lists only the client processes (id=host:port) that will
// connect, and -primaries/-host are rejected. With -shards 1 the replicas
// keep the plain IDs p00, p01, ..., s00, so aquacli can drive it with
// -primaries p00,p01,p02 and those IDs in its -cluster:
//
//	aquad -listen 127.0.0.1:7100 -shards 4 -cluster "c00=127.0.0.1:7300" -clients c00
//
// Both modes build one core.ServiceConfig from the flags, so -wal-dir,
// -snapshot-every, -replicated-assign, -trace and -metrics-addr apply to
// either. With -wal-dir D every hosted replica keeps its WAL in D/<id>, and
// a restarted process recovers from it. -pprof-addr serves net/http/pprof,
// for profiling the serving hot path under live load.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/cluster"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/tcpnet"
	"aqua/internal/wal"
)

// options are aquad's flags.
type options struct {
	cluster, primaries, clients, host, listen string
	sendq                                     int
	lazy                                      time.Duration
	app, metricsAddr, pprofAddr, tracePath    string
	verbose                                   bool
	shards, shardPrim, shardSec               int
	walDir                                    string
	snapEvery                                 int
	replAssign                                bool
}

func main() {
	var o options
	flag.StringVar(&o.cluster, "cluster", "", "comma-separated id=host:port for every replica and client process")
	flag.StringVar(&o.primaries, "primaries", "", "comma-separated primary group IDs (lowest is the sequencer)")
	flag.StringVar(&o.clients, "clients", "", "comma-separated client IDs")
	flag.StringVar(&o.host, "host", "", "comma-separated replica IDs hosted by this process")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:7100", "TCP listen address of this process")
	flag.IntVar(&o.sendq, "sendq", tcpnet.DefaultSendQueue, "per-peer send queue capacity in frames (overflow drops are recovered by retransmission)")
	flag.DurationVar(&o.lazy, "lazy", 2*time.Second, "lazy update interval T_L")
	flag.StringVar(&o.app, "app", "kv", "replicated application: kv, document, ticker")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "HTTP address serving Prometheus text on /metrics (empty = metrics off)")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "HTTP address serving net/http/pprof under /debug/pprof/ (empty = off)")
	flag.StringVar(&o.tracePath, "trace", "", "JSONL trace output file (empty = tracing off)")
	flag.BoolVar(&o.verbose, "v", false, "log gateway diagnostics")
	flag.IntVar(&o.shards, "shards", 0, "host a self-contained N-shard service in this process (-primaries/-host rejected; -cluster lists client peers only)")
	flag.IntVar(&o.shardPrim, "shard-primaries", 2, "serving primaries per shard in -shards mode (the sequencer is extra)")
	flag.IntVar(&o.shardSec, "shard-secondaries", 1, "secondaries per shard in -shards mode")
	flag.StringVar(&o.walDir, "wal-dir", "", "directory for per-replica WAL + snapshot files; a restarted process recovers from it instead of re-fetching history (empty = durability off)")
	flag.IntVar(&o.snapEvery, "snapshot-every", 0, "compact the WAL every N log records (0 = default rule: at least 256 records and as many log bytes as the snapshot cell being replaced)")
	flag.BoolVar(&o.replAssign, "replicated-assign", false, "enable majority-floor replicated GSN ordering in the primary group")
	flag.Parse()

	if o.pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Kept off the metrics mux so profiling a wedged process never
		// competes with scrapes, and so it can stay firewalled separately.
		defer serveHTTP("pprof", o.pprofAddr, "/debug/pprof/", mux).Close()
	}
	d, err := configure(o)
	if err == nil {
		err = run(o, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquad:", err)
		os.Exit(1)
	}
}

// serveHTTP serves mux on addr in the background and announces path.
func serveHTTP(what, addr, path string, mux *http.ServeMux) *http.Server {
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "aquad: %s server: %v\n", what, err)
		}
	}()
	fmt.Printf("aquad: %s on http://%s%s\n", what, addr, path)
	return srv
}

func newApp(name string) (func() app.Application, error) {
	switch name {
	case "kv":
		return func() app.Application { return apps.NewKVStore() }, nil
	case "document":
		return func() app.Application { return apps.NewDocument() }, nil
	case "ticker":
		return func() app.Application { return apps.NewTicker() }, nil
	default:
		return nil, fmt.Errorf("unknown -app %q (want kv, document, or ticker)", name)
	}
}

// daemon is what the flags resolve to: one service, the peers this process
// dials, and which part of the service it hosts — every replica of an
// N-shard service, or the -host subset of the -cluster service.
type daemon struct {
	svc    core.ServiceConfig
	peers  map[node.ID]string
	shards int
	info   client.ServiceInfo
	hosted cluster.IDList
}

// configure validates the flags and resolves them into a daemon. It opens
// nothing: files, sockets and runtimes belong to run.
func configure(o options) (*daemon, error) {
	mkApp, err := newApp(o.app)
	if err != nil {
		return nil, err
	}
	d := &daemon{shards: o.shards, svc: core.ServiceConfig{
		LazyInterval:     o.lazy,
		Group:            group.DefaultConfig(),
		NewApp:           mkApp,
		FastReads:        true,
		Durable:          o.walDir != "",
		SnapshotEvery:    o.snapEvery,
		ReplicatedAssign: o.replAssign,
		ExtraClients:     cluster.SplitIDs(o.clients),
	}}
	if o.shards > 0 {
		if o.host != "" || o.primaries != "" {
			return nil, errors.New("-shards hosts every replica of its service: -host and -primaries do not apply")
		}
		d.svc.Primaries = o.shardPrim + 1 // + the sequencer
		d.svc.Secondaries = o.shardSec
		if d.peers, err = cluster.ParseAddrs(o.cluster); err != nil {
			return nil, err
		}
		return d, nil
	}
	spec, err := cluster.Parse(o.cluster, o.primaries, o.clients)
	if err != nil {
		return nil, err
	}
	d.hosted = cluster.SplitIDs(o.host)
	if len(d.hosted) == 0 {
		return nil, errors.New("-host must name at least one replica")
	}
	d.info = spec.ServiceInfo(o.lazy)
	d.peers = spec.PeersFor(d.hosted)
	return d, nil
}

// run hosts the daemon's replicas until SIGINT or SIGTERM.
func run(o options, d *daemon) error {
	svc := d.svc
	if o.metricsAddr != "" {
		svc.Obs = obs.NewRegistry()
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer f.Close()
		svc.Tracer = obs.NewTracer(f, time.Now())
	}
	var medias []*wal.FileMedia
	defer func() {
		for _, m := range medias {
			m.Close()
		}
	}()
	svc.NewMedia = func(id node.ID) (wal.Media, error) {
		m, err := wal.NewFileMedia(filepath.Join(o.walDir, string(id)))
		if err != nil {
			return nil, fmt.Errorf("-wal-dir: %w", err)
		}
		medias = append(medias, m)
		return m, nil
	}

	opts := []live.Option{live.WithSeed(time.Now().UnixNano())}
	if o.verbose {
		opts = append(opts, live.WithLog(os.Stderr))
	}
	rt := live.NewRuntime(opts...)
	tr, err := tcpnet.New(rt, o.listen, d.peers, tcpnet.WithSendQueue(o.sendq))
	if err != nil {
		return err
	}
	defer tr.Close()
	tr.Instrument(svc.Obs)
	rt.SetRemote(tr.Send)

	var banner string
	if d.shards > 0 {
		sd, err := core.DeployShards(rt, svc, d.shards, nil)
		if err != nil {
			return err
		}
		for i, s := range sd.Shards {
			banner += fmt.Sprintf("aquad: shard %d: primaries %s; secondaries %s\n",
				i, idList(s.PrimaryGroup), idList(s.Secondaries))
		}
		banner += fmt.Sprintf("aquad: hosting %d shard(s) on %s", d.shards, o.listen)
	} else {
		dep, err := core.NewDeployment(svc, d.info, nil)
		if err == nil {
			err = dep.Host(rt, d.hosted...)
		}
		if err != nil {
			return err
		}
		banner = fmt.Sprintf("aquad: hosting %s on %s (sequencer %s)", idList(d.hosted), o.listen, d.info.Sequencer)
	}
	rt.Start()
	defer rt.Stop()

	if o.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(svc.Obs))
		defer serveHTTP("metrics", o.metricsAddr, "/metrics", mux).Close()
	}
	fmt.Println(banner)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("aquad: shutting down")
	if svc.Tracer != nil {
		if err := svc.Tracer.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "aquad: trace flush:", err)
		}
	}
	if svc.Obs != nil {
		// Final metrics snapshot so a scrape-less run still leaves evidence.
		fmt.Println("aquad: final metrics snapshot:")
		if err := svc.Obs.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "aquad: metrics dump:", err)
		}
	}
	return nil
}

func idList(ids []node.ID) string { return strings.Join(cluster.IDList(ids).Strings(), ",") }
