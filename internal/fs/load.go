package fs

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/rng"
	"eevfs/internal/telemetry"
	"eevfs/internal/workload"
)

// Load harness (DESIGN.md §21): drives a live cluster — in-process or
// attached over TCP — with thousands of concurrent logical clients whose
// requests arrive on an open-loop schedule, and reports per-op-class
// tail latency, achieved vs offered throughput, and a typed error
// taxonomy. The engine lives in this package (not cmd/eevfsload) so the
// BenchmarkLoad* benchmarks can drive it too.

// loadBuckets is the latency bucket layout for load-harness histograms:
// denser than DefBuckets between 1ms and 1s, where the knee search needs
// p99 resolution.
var loadBuckets = []float64{
	0.0002, 0.0005, 0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015,
	0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 0.75, 1, 1.5,
	2.5, 5, 10, 30,
}

// Load op classes.
const (
	LoadOpRead   = "read"   // whole-file RPC read (lookup + node read)
	LoadOpWrite  = "write"  // RPC write (write-intent lookup + node write)
	LoadOpStream = "stream" // chunked streamed read over the data plane
)

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// ServerAddrs are the metadata servers (one, or a replicated group).
	ServerAddrs []string
	// Clients is the number of concurrent logical clients. Each is one
	// goroutine with its own arrival schedule and popularity stream.
	Clients int
	// Conns is the number of fs.Client instances (and hence TCP
	// connections per daemon) the logical clients share via the v2 mux.
	// Default min(Clients, 64).
	Conns int
	// Duration bounds the measured phase by wall clock; MaxOps bounds it
	// by operation count. At least one must be set; whichever trips first
	// ends the run.
	Duration time.Duration
	MaxOps   int64
	// RatePerSec is the aggregate offered arrival rate across all
	// clients. Zero means closed-loop: every client issues its next op
	// the moment the previous one completes (back-to-back), which
	// measures capacity rather than latency-at-rate.
	RatePerSec float64
	// Process, BurstFactor, BurstFraction, BurstMeanSec select the
	// arrival process (see workload.OpenLoopConfig). Ignored when
	// RatePerSec is zero.
	Process       string
	BurstFactor   float64
	BurstFraction float64
	BurstMeanSec  float64
	// Files is the working-set size; FileSize the bytes per file. The
	// harness preloads (or re-attaches to) files named load-%06d.dat.
	Files    int
	FileSize int
	// ZipfS is the popularity exponent over the working set (default 1.1,
	// the Berkeley-web shape).
	ZipfS float64
	// WriteFrac and StreamFrac split the op mix: a request is a write
	// with probability WriteFrac, else a streamed read with probability
	// StreamFrac/(1-WriteFrac), else an RPC read.
	WriteFrac  float64
	StreamFrac float64
	Seed       uint64
	// Client configures the shared fs.Clients (transport, dialer,
	// failover budget). Client.Transport.Metrics is pointed at Registry
	// so the transport taxonomy (proto.rt.*) lands in the results.
	Client ClientConfig
	// Registry receives the harness metrics (load.* and proto.rt.*).
	// Nil means a private registry whose snapshot still backs the result.
	Registry *telemetry.Registry
	// ReportEvery, when positive, emits a live LoadReport on each tick.
	ReportEvery time.Duration
	OnReport    func(LoadReport)
	// SkipPreload attaches to an existing working set without creating
	// it (the files must exist, e.g. from a previous run on the same
	// cluster).
	SkipPreload bool
}

func (c *LoadConfig) withDefaults() error {
	if len(c.ServerAddrs) == 0 {
		return errors.New("fs: load: no server addresses")
	}
	if c.Clients <= 0 {
		return fmt.Errorf("fs: load: Clients must be positive, got %d", c.Clients)
	}
	if c.Duration <= 0 && c.MaxOps <= 0 {
		return errors.New("fs: load: need Duration or MaxOps")
	}
	if c.RatePerSec < 0 {
		return fmt.Errorf("fs: load: negative rate %g", c.RatePerSec)
	}
	if c.WriteFrac < 0 || c.StreamFrac < 0 || c.WriteFrac+c.StreamFrac > 1 {
		return fmt.Errorf("fs: load: op mix write=%g stream=%g out of range", c.WriteFrac, c.StreamFrac)
	}
	if c.Conns <= 0 {
		c.Conns = 64
	}
	if c.Conns > c.Clients {
		c.Conns = c.Clients
	}
	if c.Files <= 0 {
		c.Files = 512
	}
	if c.FileSize <= 0 {
		c.FileSize = 16 << 10
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.1
	}
	if c.RatePerSec > 0 {
		probe := workload.OpenLoopConfig{
			RatePerSec: c.RatePerSec, Process: c.Process,
			BurstFactor: c.BurstFactor, BurstFraction: c.BurstFraction,
			BurstMeanSec: c.BurstMeanSec,
		}
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// OpStats summarizes one op class over a whole run.
type OpStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	Mean   float64 `json:"mean_sec"`
	P50    float64 `json:"p50_sec"`
	P99    float64 `json:"p99_sec"`
	P999   float64 `json:"p999_sec"`
}

// LoadResult is the machine-readable outcome of one load run.
type LoadResult struct {
	DurationSec  float64 `json:"duration_sec"`
	Clients      int     `json:"clients"`
	Conns        int     `json:"conns"`
	Issued       int64   `json:"issued"`
	Completed    int64   `json:"completed"`
	Failed       int64   `json:"failed"`
	OfferedRate  float64 `json:"offered_rate"`  // 0 for closed-loop runs
	AchievedRate float64 `json:"achieved_rate"` // completed / duration
	// Ops maps op class -> latency stats. Open-loop latencies are
	// measured from the scheduled arrival time (coordinated-omission
	// corrected); closed-loop from issue time.
	Ops map[string]OpStats `json:"ops"`
	// Errors maps error taxonomy class -> count (empty on a clean run).
	Errors map[string]int64 `json:"errors,omitempty"`
	// Counters is the full counter snapshot (load.*, proto.rt.*, …).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// LoadReport is one live reporting tick: latency per op class over the
// last loadWindow ticks plus cumulative accounting.
type LoadReport struct {
	Elapsed    time.Duration
	Issued     int64
	Completed  int64
	Failed     int64
	WindowRate float64 // completions/sec since the previous tick
	Window     map[string]telemetry.HistogramSnapshot
}

// loadOpName returns the preloaded file name for working-set index i.
func loadOpName(i int) string { return fmt.Sprintf("load-%06d.dat", i) }

// classifyLoadErr files one op error into the harness taxonomy.
func classifyLoadErr(err error) string {
	switch {
	case errors.Is(err, ErrNotPrimary):
		return "remote.notprimary"
	case errors.Is(err, ErrFileNotFound):
		return "remote.notfound"
	case errors.Is(err, ErrNodeUnavailable):
		return "remote.unavailable"
	}
	var te *proto.TransportError
	if errors.As(err, &te) {
		if te.Timeout() {
			return "transport.timeout"
		}
		return "transport"
	}
	if isRemoteErr(err) {
		return "remote.generic"
	}
	return "other"
}

// loadClass holds one op class's instrumentation.
type loadClass struct {
	hist  *telemetry.Histogram
	count *telemetry.Counter
	errs  *telemetry.Counter
	past  []telemetry.HistogramSnapshot // hist at the last loadWindow reporting ticks, oldest first
}

// loadWindow is how many reporting ticks a LoadReport's latencies span.
const loadWindow = 5

// window, called by the reporter once a tick, is the class's histogram now
// less what it held loadWindow ticks ago (nothing, before then).
func (c *loadClass) window() telemetry.HistogramSnapshot {
	now := c.hist.Snapshot()
	var old telemetry.HistogramSnapshot
	if len(c.past) == loadWindow {
		old, c.past = c.past[0], c.past[1:]
	}
	c.past = append(c.past, now)
	return now.Sub(old)
}

// RunLoad executes one load run against a live cluster and blocks until
// every in-flight op has completed, so issued == completed + failed holds
// on the result. The engine is open-loop when cfg.RatePerSec > 0: each
// logical client carries an arrival schedule at rate/Clients (independent
// Poisson streams superpose to the aggregate rate) and measures latency
// from the scheduled arrival, so queueing delay the server causes is
// charged to the server even when the client goroutine was still waiting
// on the previous op.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if err := cfg.withDefaults(); err != nil {
		return LoadResult{}, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ccfg := cfg.Client
	ccfg.Transport.Metrics = reg

	// The shared connection pool: Conns real clients, each multiplexing
	// one connection per daemon across Clients/Conns logical clients.
	pool := make([]*Client, cfg.Conns)
	for i := range pool {
		cl, err := DialCluster(cfg.ServerAddrs, ccfg)
		if err != nil {
			for _, p := range pool[:i] {
				p.Close()
			}
			return LoadResult{}, fmt.Errorf("fs: load: dialing cluster: %w", err)
		}
		pool[i] = cl
	}
	defer func() {
		for _, cl := range pool {
			cl.Close()
		}
	}()

	if !cfg.SkipPreload {
		if err := preloadFiles(pool, cfg.Files, cfg.FileSize); err != nil {
			return LoadResult{}, err
		}
	}

	classes := map[string]*loadClass{}
	for _, name := range []string{LoadOpRead, LoadOpWrite, LoadOpStream} {
		classes[name] = &loadClass{
			hist:  reg.Histogram("load.lat."+name, loadBuckets),
			count: reg.Counter("load.ops." + name),
			errs:  reg.Counter("load.errors.ops." + name),
		}
	}
	var (
		issued, completed, failed atomic.Int64
		claimed                   atomic.Int64 // MaxOps admission, separate from issued
		errMu                     sync.Mutex
		errCounts                 = map[string]int64{}
	)
	countErr := func(err error) {
		class := classifyLoadErr(err)
		reg.Counter("load.errors." + class).Inc()
		errMu.Lock()
		errCounts[class]++
		errMu.Unlock()
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	if cfg.Duration > 0 {
		timer := time.AfterFunc(cfg.Duration, halt)
		defer timer.Stop()
	}

	start := time.Now()
	var reportWg sync.WaitGroup
	if cfg.ReportEvery > 0 && cfg.OnReport != nil {
		reportWg.Add(1)
		go func() {
			defer reportWg.Done()
			ticker := time.NewTicker(cfg.ReportEvery)
			defer ticker.Stop()
			var lastDone int64
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				win := make(map[string]telemetry.HistogramSnapshot, len(classes))
				for name, c := range classes {
					win[name] = c.window()
				}
				done := completed.Load()
				cfg.OnReport(LoadReport{
					Elapsed:    time.Since(start),
					Issued:     issued.Load(),
					Completed:  done,
					Failed:     failed.Load(),
					WindowRate: float64(done-lastDone) / cfg.ReportEvery.Seconds(),
					Window:     win,
				})
				lastDone = done
			}
		}()
	}

	perClientRate := cfg.RatePerSec / float64(cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := pool[i%len(pool)]
			src := rng.New(cfg.Seed + uint64(i)*0x9e3779b9)
			zipf := rng.NewZipf(src, cfg.Files, cfg.ZipfS)
			var arr *workload.Arrivals
			if cfg.RatePerSec > 0 {
				arr, _ = workload.NewArrivals(workload.OpenLoopConfig{
					RatePerSec: perClientRate, Process: cfg.Process,
					BurstFactor: cfg.BurstFactor, BurstFraction: cfg.BurstFraction,
					BurstMeanSec: cfg.BurstMeanSec, Seed: cfg.Seed + uint64(i),
				})
			}
			var payload []byte
			if cfg.WriteFrac > 0 {
				payload = make([]byte, cfg.FileSize)
				for j := range payload {
					payload[j] = byte(i + j)
				}
			}
			// next is the open-loop schedule; latency is measured from it.
			next := time.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cfg.MaxOps > 0 && claimed.Add(1) > cfg.MaxOps {
					halt() // everyone else can stop scheduling too
					return
				}
				sched := time.Now()
				if arr != nil {
					next = next.Add(arr.Next())
					if d := time.Until(next); d > 0 {
						timer := time.NewTimer(d)
						select {
						case <-stop:
							timer.Stop()
							return
						case <-timer.C:
						}
					}
					sched = next // coordinated-omission correction
				}

				name := loadOpName(zipf.Sample())
				class := LoadOpRead
				u := src.Float64()
				switch {
				case u < cfg.WriteFrac:
					class = LoadOpWrite
				case u < cfg.WriteFrac+cfg.StreamFrac:
					class = LoadOpStream
				}
				issued.Add(1)
				var err error
				switch class {
				case LoadOpWrite:
					_, err = cl.Write(name, payload)
				case LoadOpStream:
					_, _, err = cl.ReadTo(name, io.Discard)
				default:
					_, _, err = cl.Read(name)
				}
				lat := time.Since(sched).Seconds()
				c := classes[class]
				c.count.Inc()
				c.hist.Observe(lat)
				if err != nil {
					failed.Add(1)
					c.errs.Inc()
					countErr(err)
				} else {
					completed.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	halt()
	reportWg.Wait()
	elapsed := time.Since(start)

	res := LoadResult{
		DurationSec:  elapsed.Seconds(),
		Clients:      cfg.Clients,
		Conns:        cfg.Conns,
		Issued:       issued.Load(),
		Completed:    completed.Load(),
		Failed:       failed.Load(),
		OfferedRate:  cfg.RatePerSec,
		AchievedRate: float64(completed.Load()) / elapsed.Seconds(),
		Ops:          map[string]OpStats{},
		Errors:       map[string]int64{},
		Counters:     map[string]int64{},
	}
	snap := reg.Snapshot()
	for name, c := range classes {
		hs := snap.Histograms["load.lat."+name]
		res.Ops[name] = OpStats{
			Count:  c.count.Value(),
			Errors: c.errs.Value(),
			Mean:   hs.Mean(),
			P50:    hs.P50,
			P99:    hs.P99,
			P999:   hs.P999,
		}
	}
	errMu.Lock()
	for class, n := range errCounts {
		res.Errors[class] = n
	}
	errMu.Unlock()
	for name, v := range snap.Counters {
		res.Counters[name] = v
	}
	return res, nil
}

// preloadFiles makes sure the working set exists: load-%06d.dat for
// i in [0, files), each fileSize bytes. Racing creates (and re-attach to
// a populated cluster) treat "already exists" as success.
func preloadFiles(pool []*Client, files, fileSize int) error {
	content := make([]byte, fileSize)
	for i := range content {
		content[i] = byte(i)
	}
	workers := 16
	if workers > len(pool)*4 {
		workers = len(pool) * 4
	}
	var (
		wg       sync.WaitGroup
		nextFile atomic.Int64
		firstErr atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := pool[w%len(pool)]
			for {
				i := int(nextFile.Add(1)) - 1
				if i >= files || firstErr.Load() != nil {
					return
				}
				err := cl.Create(loadOpName(i), content)
				if err != nil && !strings.Contains(err.Error(), "already exists") {
					e := fmt.Errorf("fs: load: preloading %s: %w", loadOpName(i), err)
					firstErr.CompareAndSwap(nil, &e)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}
