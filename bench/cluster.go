package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/fs"
	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// Cluster shape of every live workload: eevfsload's, so numbers stay
// comparable with DESIGN.md §21.
const (
	numServers       = 3
	numNodes         = 3
	dataDisksPerNode = 2
	idleThresholdSec = 5
	clientsPerConn   = 32 // logical client goroutines per mux connection
)

// clusterSpec is what a workload asks of its cluster beyond the shape.
type clusterSpec struct {
	timeScale     float64
	injectLatency bool
	writeBuffer   bool  // nodes absorb writes on the buffer disk
	stateFiles    bool  // servers persist their namespace
	bufferCap     int64 // per-node buffer-disk capacity; 0 = unbounded
}

// liveCluster is one booted TCP stack: replicated metadata servers over
// storage nodes, plus the benchmark's client connections.
type liveCluster struct {
	dir     string
	nodes   []*fs.Node
	servers []*fs.Server
	addrs   []string // server addresses; member 0 boots primary
	clients []*fs.Client
	dialMs  float64

	// Set only in the traced run: the daemons' registry and the client
	// transports' registry.
	daemonReg *telemetry.Registry
	clientReg *telemetry.Registry
}

// boot starts the cluster under root and dials conns clients. traced
// passes telemetry registries into every layer that takes one; the
// untraced run leaves all of them nil.
func boot(root string, spec clusterSpec, conns int, traced bool) *liveCluster {
	dir, err := os.MkdirTemp(root, "cluster-")
	check(err, "creating cluster dir")
	c := &liveCluster{dir: dir}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	if traced {
		c.daemonReg = telemetry.NewRegistry()
		c.clientReg = telemetry.NewRegistry()
	}
	logger := log.New(io.Discard, "", 0)

	var nodeAddrs []string
	for i := 0; i < numNodes; i++ {
		n, err := fs.StartNode(fs.NodeConfig{
			Addr:                "127.0.0.1:0",
			RootDir:             filepath.Join(dir, fmt.Sprintf("node%d", i)),
			DataDisks:           dataDisksPerNode,
			DataModel:           disk.ModelType1,
			BufferModel:         disk.ModelType1,
			IdleThresholdSec:    idleThresholdSec,
			TimeScale:           spec.timeScale,
			InjectLatency:       spec.injectLatency,
			WriteBuffer:         spec.writeBuffer,
			BufferCapacityBytes: spec.bufferCap,
			Logger:              logger,
			Metrics:             c.daemonReg,
		})
		check(err, "starting node")
		c.nodes = append(c.nodes, n)
		nodeAddrs = append(nodeAddrs, n.Addr())
	}

	// Every group member must know the full peer list before any member
	// starts. Reserve the ports and release them again rather than hand
	// over bound listeners (eevfsload's way): a starting member probes its
	// peers for a running primary, and a probe of a bound but not yet
	// serving listener waits out the whole 10 s round-trip timeout, where a
	// probe of a free port is refused at once.
	var reserved []net.Listener
	for i := 0; i < numServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err, "reserving a server port")
		c.addrs = append(c.addrs, ln.Addr().String())
		reserved = append(reserved, ln)
	}
	for _, ln := range reserved {
		ln.Close()
	}
	for i, addr := range c.addrs {
		cfg := fs.ServerConfig{
			Addr:      addr,
			NodeAddrs: nodeAddrs,
			Logger:    logger,
			Peers:     c.addrs,
			Self:      i,
			Metrics:   c.daemonReg,
		}
		if spec.stateFiles {
			cfg.StateFile = filepath.Join(dir, fmt.Sprintf("server%d.json", i))
		}
		srv, err := fs.StartServer(cfg)
		check(err, "starting server")
		c.servers = append(c.servers, srv)
	}

	t0 := time.Now()
	for i := 0; i < conns; i++ {
		cl, err := fs.DialCluster(c.addrs, c.clientConfig())
		check(err, "dialing cluster")
		c.clients = append(c.clients, cl)
	}
	c.dialMs = ms(time.Since(t0)) / float64(conns)
	ok = true
	return c
}

func (c *liveCluster) clientConfig() fs.ClientConfig {
	return fs.ClientConfig{Transport: proto.TransportConfig{Metrics: c.clientReg}}
}

// close stops every client and daemon and removes the cluster's files.
func (c *liveCluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	os.RemoveAll(c.dir)
}

// client returns the connection logical client g shares.
func (c *liveCluster) client(g int) *fs.Client { return c.clients[g%len(c.clients)] }

// goroutines is the number of logical clients.
func (c *liveCluster) goroutines() int { return len(c.clients) * clientsPerConn }

// drive runs body once per client, all at once, for about dur, and
// returns the merged segment: what every client recorded plus what the
// process and the cluster's disks spent meanwhile.
func (c *liveCluster) drive(clients int, dur time.Duration, body func(g int, p *segResult, start, deadline time.Time)) segResult {
	parts := make([]segResult, clients)
	disk0 := c.totals()
	mem0, cpu0 := readMem(), cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body(g, &parts[g], start, start.Add(dur))
		}(g)
	}
	wg.Wait()
	seg := segResult{dur: time.Since(start), cpu: cpuTime() - cpu0, mem: readMem().sub(mem0)}
	seg.disk = c.totals().sub(disk0)
	for _, p := range parts {
		seg.attempted += p.attempted
		seg.failed += p.failed
		seg.bytes += p.bytes
		seg.lagMs = append(seg.lagMs, p.lagMs...)
		for k := range p.lat {
			seg.lat[k] = append(seg.lat[k], p.lat[k]...)
		}
	}
	return seg
}

// diskTotals is the cluster-wide model accounting read through
// Client.Stats, split by disk class.
type diskTotals struct {
	dataJ, bufferJ     float64
	spinUps, spinDowns int64
	hits, misses       int64
	statsRT            time.Duration // how long the Stats call took
	dataDisks          int
}

func (c *liveCluster) totals() diskTotals {
	t0 := time.Now()
	resp, err := c.clients[0].Stats()
	check(err, "reading cluster stats")
	t := diskTotals{statsRT: time.Since(t0)}
	for _, d := range resp.Disks {
		if strings.HasSuffix(d.Name, "/buffer") {
			t.bufferJ += d.EnergyJ
		} else {
			t.dataJ += d.EnergyJ
			t.dataDisks++
		}
		t.spinUps += d.SpinUps
		t.spinDowns += d.SpinDowns
	}
	for _, ctr := range resp.Counters {
		switch {
		case strings.HasSuffix(ctr.Name, "/node.buffer.hits"):
			t.hits += ctr.Value
		case strings.HasSuffix(ctr.Name, "/node.buffer.misses"):
			t.misses += ctr.Value
		}
	}
	return t
}

func (a diskTotals) sub(b diskTotals) diskTotals {
	a.dataJ -= b.dataJ
	a.bufferJ -= b.bufferJ
	a.spinUps -= b.spinUps
	a.spinDowns -= b.spinDowns
	a.hits -= b.hits
	a.misses -= b.misses
	return a
}

func (a diskTotals) joules() float64    { return a.dataJ + a.bufferJ }
func (a diskTotals) transitions() int64 { return a.spinUps + a.spinDowns }

func (a diskTotals) hitRatio() float64 {
	if a.hits+a.misses == 0 {
		return 0
	}
	return float64(a.hits) / float64(a.hits+a.misses)
}

// standbyFrac estimates the share of data-disk time spent in standby over
// realDur: how far the data disks' energy fell below the all-idle level,
// as a fraction of the idle–standby gap. Service and transition energy
// push it down, so it is a floor.
func (a diskTotals) standbyFrac(realDur time.Duration, timeScale float64) float64 {
	m := disk.ModelType1
	modelSec := realDur.Seconds() * timeScale * float64(a.dataDisks)
	if modelSec == 0 {
		return 0
	}
	return (m.PIdle*modelSec - a.dataJ) / ((m.PIdle - m.PStandby) * modelSec)
}

// fileBytes sums the sizes of the files under the cluster dir that match
// pattern, for the persistence metrics.
func (c *liveCluster) fileBytes(pattern string) int64 {
	paths, _ := filepath.Glob(filepath.Join(c.dir, pattern))
	var total int64
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			total += st.Size()
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
