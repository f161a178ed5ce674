// Command eevfs-node runs one EEVFS storage-node daemon: it manages a
// buffer-disk directory and N data-disk directories, injects the modeled
// disk latencies, applies the idle-threshold power management, and serves
// the node side of the EEVFS protocol.
//
// Example (three-node local cluster):
//
//	eevfs-node -addr :7001 -root /tmp/eevfs/n1 &
//	eevfs-node -addr :7002 -root /tmp/eevfs/n2 &
//	eevfs-node -addr :7003 -root /tmp/eevfs/n3 &
//	eevfs-server -addr :7000 -nodes localhost:7001,localhost:7002,localhost:7003
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"eevfs/internal/disk"
	"eevfs/internal/fs"
	"eevfs/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7001", "listen address")
		root        = flag.String("root", "", "root directory holding the disk directories (required)")
		dataDisks   = flag.Int("data-disks", 2, "number of data disks")
		model       = flag.String("disk-model", disk.ModelType1.Name, "disk model name from the catalog")
		threshold   = flag.Float64("idle-threshold", 5, "disk idle threshold in model seconds (0 disables DPM)")
		timeScale   = flag.Float64("time-scale", 1, "model seconds per real second (>1 runs faster than real time)")
		noLatency   = flag.Bool("no-latency", false, "disable modeled latency injection")
		writeBuffer = flag.Bool("write-buffer", false, "buffer writes on the buffer disk (Section III-C)")
		stripe      = flag.Int64("stripe", 0, "stripe chunk size in bytes (0 = whole-file placement)")
		adminAddr   = flag.String("admin-addr", "",
			"admin HTTP listen address serving /metrics, /healthz and /debug/pprof (empty = disabled)")
		traceSample = flag.Float64("trace-sample", 0,
			"fraction of traces recorded in full (0 = tracing disabled, 1 = everything); errored and slow spans are always kept")
		traceBuffer = flag.Int("trace-buffer", 0,
			"span ring-buffer capacity (0 = default 4096)")
	)
	flag.Parse()

	if *root == "" {
		fmt.Fprintln(os.Stderr, "eevfs-node: -root is required")
		os.Exit(2)
	}
	m, ok := disk.Catalog[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "eevfs-node: unknown disk model %q (have:", *model)
		for name := range disk.Catalog {
			fmt.Fprintf(os.Stderr, " %s", name)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(2)
	}

	var reg *telemetry.Registry
	if *adminAddr != "" {
		reg = telemetry.NewRegistry()
	}
	var tracer *telemetry.Tracer
	var energy *telemetry.EnergyLedger
	if *traceSample > 0 {
		tracer = telemetry.NewTracer(telemetry.TracerConfig{
			Capacity:   *traceBuffer,
			SampleRate: *traceSample,
			Seed:       uint64(os.Getpid()),
		})
		energy = telemetry.NewEnergyLedger(0)
	}

	node, err := fs.StartNode(fs.NodeConfig{
		Addr:             *addr,
		RootDir:          *root,
		Metrics:          reg,
		DataDisks:        *dataDisks,
		DataModel:        m,
		BufferModel:      m,
		IdleThresholdSec: *threshold,
		TimeScale:        *timeScale,
		InjectLatency:    !*noLatency,
		WriteBuffer:      *writeBuffer,
		StripeChunkBytes: *stripe,
		Tracer:           tracer,
		Energy:           energy,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "eevfs-node: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("eevfs-node listening on %s (root %s, %d data disks, model %s)\n",
		node.Addr(), *root, *dataDisks, m.Name)

	if *adminAddr != "" {
		admin, err := telemetry.StartAdminConfig(*adminAddr, telemetry.AdminConfig{
			Registry: reg,
			Tracer:   tracer,
			Energy:   energy,
			Health: func() any {
				hits, misses, bufWrites := node.Counters()
				return map[string]any{
					"buffer_hits":     hits,
					"buffer_misses":   misses,
					"buffered_writes": bufWrites,
				}
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "eevfs-node: admin listener: %v\n", err)
			node.Close()
			os.Exit(1)
		}
		defer admin.Close()
		fmt.Printf("eevfs-node admin endpoint on http://%s/metrics\n", admin.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("eevfs-node: shutting down (flushing write buffer)")
	if err := node.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "eevfs-node: close: %v\n", err)
		os.Exit(1)
	}
}
