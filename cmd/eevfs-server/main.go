// Command eevfs-server runs the EEVFS storage-server daemon: it owns the
// name -> storage-node metadata, counts accesses for popularity, routes
// client requests, and commands prefetching on the storage nodes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eevfs/internal/fs"
	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:7000", "listen address")
		nodes = flag.String("nodes", "", "comma-separated storage-node addresses (required)")
		state = flag.String("state", "", "checkpoint path for persisted metadata; the op log goes to <path>.wal (empty = in-memory only)")

		dialTimeout = flag.Duration("dial-timeout", proto.DefaultDialTimeout,
			"timeout for establishing a storage-node connection")
		rtTimeout = flag.Duration("rt-timeout", proto.DefaultRTTimeout,
			"timeout for one whole server->node round trip")
		retries = flag.Int("retries", proto.DefaultRetries,
			"additional attempts after a failed node round trip (0 = none)")
		retryBackoff = flag.Duration("retry-backoff", proto.DefaultRetryBase,
			"initial retry backoff, doubled per attempt with jitter")
		failThreshold = flag.Int("fail-threshold", 3,
			"consecutive transport failures before a node is marked unhealthy")
		probeInterval = flag.Duration("probe-interval", time.Second,
			"background node health-check period (negative = disabled)")
		adminAddr = flag.String("admin-addr", "",
			"admin HTTP listen address serving /metrics, /healthz and /debug/pprof (empty = disabled)")
		peers = flag.String("peers", "",
			"comma-separated addresses of every metadata server in a replicated group, including this one (empty = standalone)")
		self = flag.Int("self", 0,
			"this server's index in -peers (index 0 boots as primary on a cold start)")
		mirrorPrefetch = flag.Bool("mirror-prefetch", false,
			"copy each prefetched file to a second node's buffer disk so reads survive the owner's death")
		policy = flag.String("policy", "static",
			"prefetch policy: static (prefetch only when a client commands it) or adaptive (re-prefetch automatically when the hot set drifts)")
		adaptiveK = flag.Int("adaptive-k", 0,
			"max files per adaptive re-prefetch (0 = default 32; a client prefetch's K takes over afterwards)")
		traceSample = flag.Float64("trace-sample", 0,
			"fraction of traces recorded in full (0 = tracing disabled, 1 = everything); errored and slow spans are always kept")
		traceBuffer = flag.Int("trace-buffer", 0,
			"span ring-buffer capacity (0 = default 4096)")
	)
	flag.Parse()

	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "eevfs-server: -nodes is required")
		os.Exit(2)
	}
	var addrs []string
	for _, a := range strings.Split(*nodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if *retries <= 0 {
		*retries = -1 // flag 0 means "no retries"; config 0 means "default"
	}
	var peerAddrs []string
	if *peers != "" {
		for _, a := range strings.Split(*peers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				peerAddrs = append(peerAddrs, a)
			}
		}
		if *self < 0 || *self >= len(peerAddrs) {
			fmt.Fprintf(os.Stderr, "eevfs-server: -self %d outside -peers list of %d\n", *self, len(peerAddrs))
			os.Exit(2)
		}
	}

	var reg *telemetry.Registry
	if *adminAddr != "" {
		reg = telemetry.NewRegistry()
	}
	var tracer *telemetry.Tracer
	if *traceSample > 0 {
		tracer = telemetry.NewTracer(telemetry.TracerConfig{
			Capacity:   *traceBuffer,
			SampleRate: *traceSample,
			Seed:       uint64(os.Getpid()),
		})
	}

	srv, err := fs.StartServer(fs.ServerConfig{
		Addr:           *addr,
		NodeAddrs:      addrs,
		StateFile:      *state,
		Metrics:        reg,
		Peers:          peerAddrs,
		Self:           *self,
		MirrorPrefetch: *mirrorPrefetch,
		Policy:         *policy,
		AdaptiveK:      *adaptiveK,
		Tracer:         tracer,
		Transport: proto.TransportConfig{
			DialTimeout: *dialTimeout,
			RTTimeout:   *rtTimeout,
			Retries:     *retries,
			RetryBase:   *retryBackoff,
		},
		Health: fs.HealthConfig{
			FailThreshold: *failThreshold,
			ProbeInterval: *probeInterval,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "eevfs-server: %v\n", err)
		os.Exit(1)
	}
	if len(peerAddrs) > 0 {
		fmt.Printf("eevfs-server listening on %s, %d storage nodes, group member %d/%d\n",
			srv.Addr(), len(addrs), *self, len(peerAddrs))
	} else {
		fmt.Printf("eevfs-server listening on %s, %d storage nodes\n", srv.Addr(), len(addrs))
	}

	if *adminAddr != "" {
		admin, err := telemetry.StartAdminConfig(*adminAddr, telemetry.AdminConfig{
			Registry: reg,
			Tracer:   tracer,
			Health: func() any {
				primary, epoch, seq := srv.ReplStatus()
				return map[string]any{
					"healthy_nodes": srv.Healthy(),
					"primary":       primary,
					"repl_epoch":    epoch,
					"repl_seq":      seq,
				}
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "eevfs-server: admin listener: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		defer admin.Close()
		fmt.Printf("eevfs-server admin endpoint on http://%s/metrics\n", admin.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "eevfs-server: close: %v\n", err)
		os.Exit(1)
	}
}
