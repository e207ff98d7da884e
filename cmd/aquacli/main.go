// Command aquacli is the interactive client for an aquad cluster: it hosts
// one client gateway, connects over TCP, and executes a small scripted
// workload (or single operations) against the replicated key-value service
// under a QoS specification.
//
//	aquacli -cluster ... -primaries ... -clients c00 -id c00 \
//	        -listen 127.0.0.1:7300 -op set -key lang -value go
//	aquacli ... -op get -key lang -staleness 2 -deadline 200ms -prob 0.9
//	aquacli ... -op bench -n 50
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"aqua/internal/client"
	"aqua/internal/cluster"
	"aqua/internal/core"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/stats"
	"aqua/internal/tcpnet"
)

func main() {
	var (
		clusterSpec = flag.String("cluster", "", "comma-separated id=host:port for every replica and client process")
		primaries   = flag.String("primaries", "", "comma-separated primary group IDs")
		clients     = flag.String("clients", "", "comma-separated client IDs")
		id          = flag.String("id", "c00", "this client's node ID")
		listen      = flag.String("listen", "127.0.0.1:7300", "TCP listen address of this process")
		sendq       = flag.Int("sendq", tcpnet.DefaultSendQueue, "per-peer send queue capacity in frames (overflow drops are recovered by retransmission)")
		lazy        = flag.Duration("lazy", 2*time.Second, "lazy update interval T_L (must match aquad)")
		op          = flag.String("op", "bench", "operation: set, get, version, bench")
		key         = flag.String("key", "k", "key for set/get")
		value       = flag.String("value", "v", "value for set")
		n           = flag.Int("n", 20, "bench: number of alternating set/get requests")
		staleness   = flag.Int("staleness", 2, "QoS staleness threshold (versions)")
		deadline    = flag.Duration("deadline", 200*time.Millisecond, "QoS response-time deadline")
		prob        = flag.Float64("prob", 0.9, "QoS minimum probability of timely response")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address serving Prometheus text on /metrics — includes the selection calibration counters (empty = metrics off)")
		tracePath   = flag.String("trace", "", "JSONL trace output file (empty = tracing off)")
	)
	flag.Parse()

	if err := run(*clusterSpec, *primaries, *clients, *id, *listen, *sendq, *lazy,
		*op, *key, *value, *n, *metricsAddr, *tracePath,
		qos.Spec{Staleness: *staleness, Deadline: *deadline, MinProb: *prob}); err != nil {
		fmt.Fprintln(os.Stderr, "aquacli:", err)
		os.Exit(1)
	}
}

func run(clusterSpec, primaries, clients, id, listen string, sendq int, lazy time.Duration,
	op, key, value string, n int, metricsAddr, tracePath string, spec qos.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	cs, err := cluster.Parse(clusterSpec, primaries, clients)
	if err != nil {
		return err
	}
	if !cs.Clients.Contains(node.ID(id)) {
		return fmt.Errorf("%q is not declared in -clients", id)
	}
	cc := core.ClientConfig{ID: node.ID(id), Spec: spec, Methods: qos.NewMethods("Get", "Version")}
	if metricsAddr != "" {
		cc.Obs = obs.NewRegistry()
	}
	if tracePath != "" {
		traceFile, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer traceFile.Close()
		cc.Tracer = obs.NewTracer(traceFile, time.Now())
		defer cc.Tracer.Flush()
	}

	rt := live.NewRuntime(live.WithSeed(time.Now().UnixNano()))
	tr, err := tcpnet.New(rt, listen, cs.PeersFor(cluster.IDList{node.ID(id)}), tcpnet.WithSendQueue(sendq))
	if err != nil {
		return err
	}
	defer tr.Close()
	tr.Instrument(cc.Obs)
	rt.SetRemote(tr.Send)

	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(cc.Obs))
		srv := &http.Server{Addr: metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "aquacli: metrics server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("aquacli: metrics on http://%s/metrics\n", metricsAddr)
	}

	cfg := core.ClientGatewayConfig(core.ServiceConfig{}, cc)
	cfg.Service = cs.ServiceInfo(lazy)
	gw := client.New(cfg)

	done := make(chan error, 1)
	driver := func(ctx node.Context, gw *client.Gateway) {
		report := func(label string, r client.Result) {
			fmt.Printf("%-8s -> %q from %s in %v (late=%v, selected=%d, err=%q)\n",
				label, r.Payload, r.Replica, r.ResponseTime.Round(time.Microsecond),
				r.TimingFailure, r.Selected, r.Err)
		}
		switch op {
		case "set":
			gw.Invoke("Set", []byte(key+"="+value), func(r client.Result) {
				report("set", r)
				done <- nil
			})
		case "get":
			gw.Invoke("Get", []byte(key), func(r client.Result) {
				report("get", r)
				done <- nil
			})
		case "version":
			gw.Invoke("Version", nil, func(r client.Result) {
				report("version", r)
				done <- nil
			})
		case "bench":
			var readMS []float64
			var issue func(i int)
			issue = func(i int) {
				if i >= n {
					m := gw.Metrics()
					fmt.Printf("\nbench: %d updates, %d reads, %d timing failures (rate %.3f)\n",
						m.Updates, m.Reads, m.TimingFailures, gw.FailureRate())
					if len(readMS) > 0 {
						fmt.Printf("bench: read latency p50=%.1fms p95=%.1fms p99=%.1fms\n",
							stats.Percentile(readMS, 0.50),
							stats.Percentile(readMS, 0.95),
							stats.Percentile(readMS, 0.99))
					}
					done <- nil
					return
				}
				next := func(r client.Result) {
					if r.Err != "" {
						fmt.Printf("request %d error: %s\n", i, r.Err)
					}
					ctx.SetTimer(50*time.Millisecond, func() { issue(i + 1) })
				}
				if i%2 == 0 {
					gw.Invoke("Set", []byte(fmt.Sprintf("%s=%d", key, i)), next)
				} else {
					gw.Invoke("Get", []byte(key), func(r client.Result) {
						report(fmt.Sprintf("get#%d", i), r)
						if r.Err == "" {
							readMS = append(readMS, float64(r.ResponseTime)/1e6)
						}
						next(r)
					})
				}
			}
			issue(0)
		default:
			done <- fmt.Errorf("unknown -op %q", op)
		}
	}

	rt.Register(node.ID(id), &drivenGateway{gw: gw, driver: driver})
	rt.Start()
	defer rt.Stop()

	select {
	case err := <-done:
		if err == nil && cc.Obs != nil {
			fmt.Println("\naquacli: final metrics snapshot:")
			if werr := cc.Obs.WritePrometheus(os.Stdout); werr != nil {
				fmt.Fprintln(os.Stderr, "aquacli: metrics dump:", werr)
			}
		}
		return err
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("timed out")
	}
}

// drivenGateway runs the workload driver inside the gateway's node context.
type drivenGateway struct {
	gw     *client.Gateway
	driver func(node.Context, *client.Gateway)
}

func (d *drivenGateway) Init(ctx node.Context) {
	d.gw.Init(ctx)
	ctx.SetTimer(100*time.Millisecond, func() { d.driver(ctx, d.gw) })
}

func (d *drivenGateway) Recv(from node.ID, m node.Message) { d.gw.Recv(from, m) }
