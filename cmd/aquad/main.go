// Command aquad hosts one or more replica gateways of a replicated service
// in a single OS process, speaking the protocol over TCP. Several aquad
// processes plus aquacli form a real distributed deployment of the
// framework — the same gateways the simulator runs, on real sockets.
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
// connect, and -primaries/-host are ignored:
//
//	aquad -listen 127.0.0.1:7100 -shards 4 -cluster "c00=127.0.0.1:7300" -clients c00
//
// -pprof-addr serves net/http/pprof in either mode, for profiling the
// serving hot path under live load.
package main

import (
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
	"aqua/internal/cluster"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/tcpnet"
	"aqua/internal/wal"
)

func main() {
	var (
		clusterSpec = flag.String("cluster", "", "comma-separated id=host:port for every replica and client process")
		primaries   = flag.String("primaries", "", "comma-separated primary group IDs (lowest is the sequencer)")
		clients     = flag.String("clients", "", "comma-separated client IDs")
		host        = flag.String("host", "", "comma-separated replica IDs hosted by this process")
		listen      = flag.String("listen", "127.0.0.1:7100", "TCP listen address of this process")
		sendq       = flag.Int("sendq", tcpnet.DefaultSendQueue, "per-peer send queue capacity in frames (overflow drops are recovered by retransmission)")
		lazy        = flag.Duration("lazy", 2*time.Second, "lazy update interval T_L")
		appName     = flag.String("app", "kv", "replicated application: kv, document, ticker")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address serving Prometheus text on /metrics (empty = metrics off)")
		pprofAddr   = flag.String("pprof-addr", "", "HTTP address serving net/http/pprof under /debug/pprof/ (empty = off)")
		tracePath   = flag.String("trace", "", "JSONL trace output file (empty = tracing off)")
		verbose     = flag.Bool("v", false, "log gateway diagnostics")
		shards      = flag.Int("shards", 0, "host a self-contained N-shard service in this process (-primaries/-host ignored; -cluster lists client peers only)")
		shardPrim   = flag.Int("shard-primaries", 2, "serving primaries per shard in -shards mode (the sequencer is extra)")
		shardSec    = flag.Int("shard-secondaries", 1, "secondaries per shard in -shards mode")
		walDir      = flag.String("wal-dir", "", "directory for per-replica WAL + snapshot files; a restarted process recovers from it instead of re-fetching history (empty = durability off)")
		snapEvery   = flag.Int("snapshot-every", 0, "compact the WAL every N log records (0 = default rule: at least 256 records and as many log bytes as the snapshot cell being replaced)")
		replAssign  = flag.Bool("replicated-assign", false, "enable majority-floor replicated GSN ordering in the primary group")
	)
	flag.Parse()

	if *pprofAddr != "" {
		srv := servePprof(*pprofAddr)
		defer srv.Close()
	}
	var err error
	if *shards > 0 {
		err = runSharded(*clusterSpec, *clients, *listen, *sendq, *lazy, *appName,
			*metricsAddr, *shards, *shardPrim, *shardSec, *verbose)
	} else {
		err = run(*clusterSpec, *primaries, *clients, *host, *listen, *sendq, *lazy, *appName,
			*metricsAddr, *tracePath, *walDir, *snapEvery, *replAssign, *verbose)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquad:", err)
		os.Exit(1)
	}
}

// servePprof exposes the standard net/http/pprof endpoints on their own
// listener (kept off the metrics mux so profiling a wedged process never
// competes with scrapes, and so it can stay firewalled separately).
func servePprof(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "aquad: pprof server:", err)
		}
	}()
	fmt.Printf("aquad: pprof on http://%s/debug/pprof/\n", addr)
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

// runSharded is the -shards mode: one process hosting every replica of an
// N-shard service as concurrent nodes on the parallel runtime. The
// cluster spec lists only the client processes that will connect.
func runSharded(clusterSpec, clients, listen string, sendq int, lazy time.Duration, appName,
	metricsAddr string, shards, prim, sec int, verbose bool) error {
	mkApp, err := newApp(appName)
	if err != nil {
		return err
	}
	peers, err := parsePeers(clusterSpec)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
	}

	opts := []live.Option{live.WithSeed(time.Now().UnixNano())}
	if verbose {
		opts = append(opts, live.WithLog(os.Stderr))
	}
	rt := live.NewRuntime(opts...)
	tr, err := tcpnet.New(rt, listen, peers, tcpnet.WithSendQueue(sendq))
	if err != nil {
		return err
	}
	defer tr.Close()
	tr.Instrument(reg)
	rt.SetRemote(tr.Send)

	svc := core.ServiceConfig{
		Primaries:    prim + 1, // + the sequencer
		Secondaries:  sec,
		LazyInterval: lazy,
		Group:        group.DefaultConfig(),
		NewApp:       mkApp,
		FastReads:    true,
		ExtraClients: cluster.SplitIDs(clients),
		Obs:          reg,
	}
	sd, err := core.DeployShards(rt, svc, shards, nil)
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Stop()

	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		srv := &http.Server{Addr: metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "aquad: metrics server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("aquad: metrics on http://%s/metrics\n", metricsAddr)
	}

	for i, d := range sd.Shards {
		fmt.Printf("aquad: shard %d: primaries %s; secondaries %s\n",
			i, idList(d.PrimaryGroup), idList(d.Secondaries))
	}
	fmt.Printf("aquad: hosting %d shard(s) on %s\n", shards, listen)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("aquad: shutting down")
	return nil
}

// parsePeers reads the sharded mode's client-only cluster spec
// (id=host:port, comma-separated; empty allowed).
func parsePeers(spec string) (map[node.ID]string, error) {
	peers := make(map[node.ID]string)
	if strings.TrimSpace(spec) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad -cluster entry %q (want id=host:port)", part)
		}
		peers[node.ID(kv[0])] = kv[1]
	}
	return peers, nil
}

func idList(ids []node.ID) string {
	ss := make([]string, len(ids))
	for i, id := range ids {
		ss[i] = string(id)
	}
	return strings.Join(ss, ",")
}

func run(clusterSpec, primaries, clients, host, listen string, sendq int, lazy time.Duration, appName string,
	metricsAddr, tracePath, walDir string, snapEvery int, replAssign bool, verbose bool) error {
	spec, err := cluster.Parse(clusterSpec, primaries, clients)
	if err != nil {
		return err
	}
	mkApp, err := newApp(appName)
	if err != nil {
		return err
	}
	hosted := cluster.SplitIDs(host)
	if len(hosted) == 0 {
		return fmt.Errorf("-host must name at least one replica")
	}

	var o cluster.Observability
	if metricsAddr != "" {
		o.Obs = obs.NewRegistry()
	}
	var traceFile *os.File
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer traceFile.Close()
		o.Tracer = obs.NewTracer(traceFile, time.Now())
	}

	opts := []live.Option{live.WithSeed(time.Now().UnixNano())}
	if verbose {
		opts = append(opts, live.WithLog(os.Stderr))
	}
	rt := live.NewRuntime(opts...)

	tr, err := tcpnet.New(rt, listen, spec.PeersFor(hosted), tcpnet.WithSendQueue(sendq))
	if err != nil {
		return err
	}
	defer tr.Close()
	tr.Instrument(o.Obs)
	rt.SetRemote(tr.Send)

	ropts := cluster.ReplicaOptions{SnapshotEvery: snapEvery, ReplicatedAssign: replAssign}
	for _, id := range hosted {
		ropts.Media = nil
		if walDir != "" {
			media, err := wal.NewFileMedia(filepath.Join(walDir, string(id)))
			if err != nil {
				return fmt.Errorf("-wal-dir: %w", err)
			}
			defer media.Close()
			ropts.Media = media
		}
		gw, err := spec.NewReplicaOpts(id, lazy, mkApp(), o, ropts)
		if err != nil {
			return err
		}
		rt.Register(id, gw)
	}
	rt.Start()
	defer rt.Stop()

	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(o.Obs))
		srv := &http.Server{Addr: metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "aquad: metrics server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("aquad: metrics on http://%s/metrics\n", metricsAddr)
	}

	fmt.Printf("aquad: hosting %s on %s (sequencer %s)\n",
		strings.Join(hosted.Strings(), ","), listen, spec.Sequencer)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("aquad: shutting down")
	if o.Tracer != nil {
		if err := o.Tracer.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "aquad: trace flush:", err)
		}
	}
	if o.Obs != nil {
		// Final metrics snapshot so a scrape-less run still leaves evidence.
		fmt.Println("aquad: final metrics snapshot:")
		if err := o.Obs.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "aquad: metrics dump:", err)
		}
	}
	return nil
}
