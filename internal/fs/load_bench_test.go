package fs

import (
	"testing"
	"time"
)

// Hand-run load benchmarks for the two shapes `go run ./bench` does not
// hold yet — deep fan-in and connection cycling (run with -benchtime 1x):
// fixed work per iteration, so ns/op is the wall-clock of a deterministic
// op count. Each boots a fresh cluster — connection setup and accept-path
// behavior are part of what they measure.

// benchLoadCluster boots one server over two nodes shaped for load:
// latency injection off, probes off, DPM off.
func benchLoadCluster(b *testing.B) *Server {
	b.Helper()
	return startLocal(b, LocalConfig{Nodes: 2, Servers: 1,
		Node:   func(_ int, c *NodeConfig) { c.IdleThresholdSec = 0 },
		Server: func(_ int, c *ServerConfig) { c.Health.ProbeInterval = -1 },
	}).Servers[0]
}

func runLoadBench(b *testing.B, cfg LoadConfig) {
	b.Helper()
	srv := benchLoadCluster(b)
	cfg.ServerAddrs = []string{srv.Addr()}
	cfg.Duration = 5 * time.Minute // backstop; MaxOps is the real bound
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.SkipPreload = i > 0 // the working set survives across iterations
		res, err := RunLoad(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Issued != res.Completed+res.Failed {
			b.Fatalf("accounting broken: %+v", res)
		}
		if res.Failed != 0 {
			b.Fatalf("load bench produced %d errors: %v", res.Failed, res.Errors)
		}
		b.ReportMetric(res.AchievedRate, "ops/s")
		b.ReportMetric(res.Ops[LoadOpRead].P99*1000, "p99-ms")
	}
}

// BenchmarkLoadFanIn: 1000 logical clients over 32 connections,
// closed-loop reads — the per-connection worker model's queueing under
// deep fan-in is the thing this number moves with.
func BenchmarkLoadFanIn(b *testing.B) {
	runLoadBench(b, LoadConfig{
		Clients: 1000, Conns: 32, MaxOps: 8000,
		Files: 256, FileSize: 2 << 10, Seed: 3,
	})
}

// BenchmarkLoadConnSetup: 200 fresh dial→read→close cycles per
// iteration, 8 at a time — the accept-path number (listener loop,
// preface sniff, connection teardown).
func BenchmarkLoadConnSetup(b *testing.B) {
	srv := benchLoadCluster(b)
	// One preload pass so every dial cycle reads an existing file.
	if _, err := RunLoad(LoadConfig{
		ServerAddrs: []string{srv.Addr()}, Clients: 8, MaxOps: 8,
		Duration: time.Minute, Files: 16, FileSize: 1 << 10, Seed: 4,
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		const cycles, par = 200, 8
		errs := make(chan error, par)
		for w := 0; w < par; w++ {
			go func(w int) {
				for j := 0; j < cycles/par; j++ {
					cl, err := Dial(srv.Addr())
					if err != nil {
						errs <- err
						return
					}
					_, _, err = cl.Read(loadOpName(j % 16))
					cl.Close()
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(w)
		}
		for w := 0; w < par; w++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
}
