package simtest

// Live scenarios run the real fs.Server/Node TCP stack (on loopback,
// with faultnet chaos) instead of the simulator. Wall-clock timing here
// is inherently nondeterministic, so the oracles are timing-independent:
// whatever interleaving happened, typed errors only, and — after the
// cluster heals — the server's metadata must agree with what the nodes
// actually hold (the sharded map vs node-held per-disk metadata check).
// The operation *plan* is still derived from the seed, so a failing seed
// replays the same sequence of operations.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"eevfs/internal/faultnet"
	"eevfs/internal/fs"
	"eevfs/internal/proto"
	"eevfs/internal/rng"
)

// LiveScenario is one seeded chaos run against the real TCP stack.
type LiveScenario struct {
	Seed        uint64
	Nodes       int    // storage nodes (2..3)
	Files       int    // files created up front
	Ops         int    // randomized operations after the initial population
	WritePct    int    // probability an op overwrites instead of reading
	LatencyMS   int    // faultnet latency injected on every node link
	PrefetchK   int    // prefetch budget pushed before the op stream
	KillNode    int    // node index crashed mid-run and restarted (-1: none)
	Servers     int    // metadata servers in the replicated group (0/1: standalone)
	KillPrimary bool   // crash the primary mid-run (needs Servers > 1)
	Inject      string // deliberate-bug injection ("" or "silent-replication")
	// RestartServer stops a metadata server mid-run and restarts it from
	// its StateFile (checkpoint + op log): the standalone server, which
	// must come back with the namespace it acked; or, with KillPrimary,
	// the killed primary, which must rejoin as a follower and converge.
	RestartServer bool
}

// GenerateLive derives a live scenario from a seed. Inject is never set
// by generation: bug injection is a harness-testing knob, not a soak
// dimension.
func GenerateLive(seed uint64) LiveScenario {
	src := rng.New(seed)
	s := LiveScenario{
		Seed:     seed,
		Nodes:    2 + src.Intn(2),
		Files:    3 + src.Intn(8),
		Ops:      10 + src.Intn(21),
		KillNode: -1,
		Servers:  1,
	}
	if src.Float64() < 0.5 {
		s.WritePct = 10 + src.Intn(40)
	}
	if src.Float64() < 0.5 {
		s.LatencyMS = 1 + src.Intn(5)
	}
	s.PrefetchK = src.Intn(s.Files + 1)
	if src.Float64() < 0.5 {
		s.KillNode = src.Intn(s.Nodes)
	}
	// New dimensions draw after the original ones so the same seed keeps
	// producing the same base scenario it always did.
	if src.Float64() < 0.5 {
		s.Servers = 2 + src.Intn(2)
		if src.Float64() < 0.6 {
			s.KillPrimary = true
		}
	}
	if src.Float64() < 0.5 {
		s.RestartServer = s.Servers == 1 || s.KillPrimary
	}
	return s
}

// liveTransport mirrors the chaos-test policy: aggressive timeouts so
// every failure mode resolves quickly and typed.
func liveTransport() proto.TransportConfig {
	return proto.TransportConfig{
		DialTimeout: 250 * time.Millisecond,
		RTTimeout:   250 * time.Millisecond,
		Retries:     1,
		RetryBase:   5 * time.Millisecond,
		RetryMax:    10 * time.Millisecond,
		Seed:        7,
	}
}

// typedError reports whether err is one of the failure modes the stack
// is allowed to surface while a node or server is down: the
// unavailable/not-found/not-primary sentinels or a typed transport
// error. Anything else (hangs are caught by the transport deadlines) is
// an invariant violation.
func typedError(err error) bool {
	var te *proto.TransportError
	var re *proto.RemoteError
	return errors.Is(err, fs.ErrNodeUnavailable) ||
		errors.Is(err, fs.ErrFileNotFound) ||
		errors.Is(err, fs.ErrNotPrimary) ||
		errors.As(err, &te) || errors.As(err, &re)
}

// CheckLive runs one live scenario end to end and returns the first
// invariant violation (nil: all held). It needs a scratch directory for
// the node disk roots; the caller owns cleanup of tmpDir.
func CheckLive(s LiveScenario, tmpDir string) *Failure {
	serverNet := faultnet.New(int64(s.Seed))
	clientNet := faultnet.New(int64(s.Seed) + 1)
	src := rng.New(s.Seed)
	numServers := max(s.Servers, 1)

	// A standalone server or a replicated group whose server 0 boots as
	// primary; the injected replication bug, when asked for, arms on it.
	local, err := fs.StartLocal(fs.LocalConfig{
		Nodes: s.Nodes, Servers: numServers, Dir: tmpDir,
		Node: func(_ int, c *fs.NodeConfig) {
			c.InjectLatency, c.WriteBuffer, c.WriteTimeout = true, s.WritePct > 0, time.Second
		},
		Server: func(i int, c *fs.ServerConfig) {
			c.StateFile = fmt.Sprintf("%s/server%d.state", tmpDir, i)
			c.Dialer, c.Transport, c.WriteTimeout = serverNet, liveTransport(), time.Second
			c.Health = fs.HealthConfig{FailThreshold: 2, ProbeInterval: 20 * time.Millisecond}
			if i == 0 && s.Inject == "silent-replication" {
				c.ReplChaosSilentAfter = 1
			}
		},
	})
	if err != nil {
		return failf("setup", "start cluster: %v", err)
	}
	defer local.Close()

	if s.LatencyMS > 0 {
		for _, n := range local.Nodes {
			f := faultnet.Fault{Latency: time.Duration(s.LatencyMS) * time.Millisecond}
			serverNet.SetFault(n.Addr(), f)
			clientNet.SetFault(n.Addr(), f)
		}
	}

	cl, err := fs.DialCluster(local.Addrs, fs.ClientConfig{Dialer: clientNet, Transport: liveTransport()})
	if err != nil {
		return failf("setup", "dial: %v", err)
	}
	defer cl.Close()

	// Phase 1: populate. The cluster is healthy, so every create must
	// succeed. acceptable tracks every content a later read may legally
	// return: a write that fails with a typed error may still have landed
	// on the node (the response, not the write, is what was lost), so
	// both the old and the attempted content stay acceptable.
	acceptable := make(map[string][][]byte, s.Files)
	written := make(map[string]bool, s.Files)
	names := make([]string, 0, s.Files)
	for i := 0; i < s.Files; i++ {
		name := fmt.Sprintf("live-%d", i)
		// Prefix the name so every file's content is unique: the
		// correlation phase below depends on a crossed response being
		// distinguishable from the right one.
		data := append([]byte(name+":"), bytes.Repeat([]byte{byte('a' + i%26)}, 200+src.Intn(4000))...)
		if err := cl.Create(name, data); err != nil {
			return failf("create", "create %s on healthy cluster: %v", name, err)
		}
		acceptable[name] = [][]byte{data}
		names = append(names, name)
	}
	if s.PrefetchK > 0 {
		if _, err := cl.Prefetch(s.PrefetchK); err != nil {
			return failf("prefetch", "prefetch on healthy cluster: %v", err)
		}
	}

	// Phase 1b: request-id correlation oracle. The cluster is healthy and
	// every file's content is unique, so concurrent readers pipelining on
	// the client's shared connections must each get back exactly the
	// content they asked for — a demux delivering a response to the wrong
	// request id would surface here as a cross-file content swap.
	if err := checkCorrelation(cl, names, acceptable); err != nil {
		return err
	}

	// Phase 1c: stream-content-integrity oracle. The same files pulled
	// concurrently through the chunked streaming data plane — data
	// frames for different streams interleave on the shared
	// connections, so a chunk demuxed to the wrong stream id shows up
	// as a cross-file content swap here.
	if err := checkStreamIntegrity(cl, names, acceptable); err != nil {
		return err
	}

	// Phase 2: randomized reads/writes, with an optional mid-run node
	// crash and — in a replicated group — an optional primary kill.
	// While a node or the primary is down, operations may fail — but
	// only with typed errors, and writes that fail must not corrupt the
	// surviving copy of the namespace.
	killAt := -1
	if s.KillNode >= 0 {
		killAt = s.Ops / 3
	}
	killPrimaryAt := -1
	if numServers > 1 && s.KillPrimary {
		killPrimaryAt = s.Ops / 2
	}
	restartAt := -1
	if numServers == 1 && s.RestartServer {
		restartAt = s.Ops / 2
	}
	for op := 0; op < s.Ops; op++ {
		if op == killAt {
			local.Nodes[s.KillNode].Close()
		}
		if op == killPrimaryAt {
			local.Servers[0].Close()
		}
		if op == restartAt {
			// Same address, same StateFile: the client's next operation
			// reconnects to a server that must know everything it acked.
			if err := local.RestartServer(0); err != nil {
				return failf("restart", "restart the server from its state file: %v", err)
			}
		}
		name := names[src.Intn(len(names))]
		if s.WritePct > 0 && int(src.Intn(100)) < s.WritePct {
			data := bytes.Repeat([]byte{byte('A' + op%26)}, 200+src.Intn(4000))
			_, err := cl.Write(name, data)
			written[name] = true
			switch {
			case err == nil:
				// The write definitely landed: it is now the only legal
				// content.
				acceptable[name] = [][]byte{data}
			case typedError(err):
				// The write may or may not have landed; both contents
				// stay legal. Anything in between would be torn.
				acceptable[name] = append(acceptable[name], data)
			default:
				return failf("op-write", "write %s failed untyped: %v", name, err)
			}
		} else {
			data, _, err := cl.Read(name)
			switch {
			case err == nil:
				if !anyEqual(data, acceptable[name]) {
					return failf("op-read", "read %s returned %d bytes matching no acceptable content (torn or corrupt copy)", name, len(data))
				}
			case typedError(err):
			default:
				return failf("op-read", "read %s failed untyped: %v", name, err)
			}
		}
	}

	// Phase 3a: failover quiesce. After a primary kill, exactly one
	// surviving follower must promote itself; all client traffic from
	// here on lands on it via redirects.
	pi, err := local.Primary(10 * time.Second)
	if err != nil {
		return failf("failover", "no surviving server claimed primary within 10s: %v", err)
	}
	srv := local.Servers[pi]

	// Phase 3a': the killed primary comes back from its state file. It
	// must find the new primary, step in as a follower, and — checked by
	// the convergence oracle below — end up with the group's namespace,
	// not the one it crashed with.
	if killPrimaryAt >= 0 && s.RestartServer {
		if err := local.RestartServer(0); err != nil {
			return failf("restart", "restart the killed primary from its state file: %v", err)
		}
	}

	// Phase 3b: heal (restart the crashed node on its old address with
	// its old disk roots) and wait for the prober to readmit it.
	if s.KillNode >= 0 && killAt >= 0 {
		if err := local.RestartNode(s.KillNode); err != nil {
			return failf("heal", "restart node %d: %v", s.KillNode, err)
		}
		if err := waitHealthy(srv, s.KillNode, true, 10*time.Second); err != nil {
			return failf("heal", "%v", err)
		}
	}

	// Phase 3c: metadata-convergence oracle. Once the group quiesces,
	// every surviving replica must report the identical file table — a
	// replica that silently missed an acked mutation diverges here (or,
	// if all survivors missed it together, against the ground truth
	// below).
	if err := local.Converged(10 * time.Second); err != nil {
		return failf("convergence", "surviving replicas never converged: %v", err)
	}

	// Oracle: metadata consistency. Every file the server's sharded map
	// claims must exist in the owning node's local metadata, the node's
	// recorded size must match what an end-to-end read returns, and the
	// content must be one the operation history can explain. The server's
	// own size is authoritative only for never-written files: data writes
	// go client -> node directly, so the server keeps the create-time
	// size by design.
	infos := srv.Files()
	if len(infos) != len(names) {
		return failf("metadata", "server metadata has %d files, created %d", len(infos), len(names))
	}
	nodes := local.Nodes
	nodeMeta := make([]map[int]int64, len(nodes))
	for i, n := range nodes {
		nodeMeta[i] = make(map[int]int64)
		for _, e := range n.Files() {
			nodeMeta[i][e.ID] = e.Size
		}
	}
	for _, fi := range infos {
		if fi.Node < 0 || fi.Node >= len(nodes) {
			return failf("metadata", "server places %s on node %d of %d", fi.Name, fi.Node, len(nodes))
		}
		size, ok := nodeMeta[fi.Node][fi.ID]
		if !ok {
			return failf("metadata", "server says %s (id %d) lives on node %d, but the node has no such entry", fi.Name, fi.ID, fi.Node)
		}
		if !written[fi.Name] && size != fi.Size {
			return failf("metadata", "never-written %s size disagrees: server %d, node %d", fi.Name, fi.Size, size)
		}
		data, _, err := cl.Read(fi.Name)
		if err != nil {
			return failf("metadata", "read %s after heal: %v", fi.Name, err)
		}
		if int64(len(data)) != size {
			return failf("metadata", "read %s returned %d bytes, node metadata says %d", fi.Name, len(data), size)
		}
		if !anyEqual(data, acceptable[fi.Name]) {
			return failf("metadata", "%s final content (%d bytes) matches no acceptable content", fi.Name, len(data))
		}
	}
	return nil
}

// checkCorrelation reads every file from several goroutines at once
// through one shared client and verifies each reader got its own file's
// exact content. Run only while the cluster is healthy, so any error —
// not just a content swap — is a violation.
func checkCorrelation(cl *fs.Client, names []string, acceptable map[string][][]byte) *Failure {
	const rounds = 3
	errCh := make(chan *Failure, len(names))
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				data, _, err := cl.Read(name)
				if err != nil {
					errCh <- failf("correlation", "concurrent read %s on healthy cluster: %v", name, err)
					return
				}
				if !bytes.Equal(data, acceptable[name][0]) {
					errCh <- failf("correlation", "concurrent read %s returned %d bytes of someone else's content (crossed request ids)", name, len(data))
					return
				}
			}
		}(name)
	}
	wg.Wait()
	close(errCh)
	for f := range errCh {
		return f
	}
	return nil
}

// checkStreamIntegrity streams every file from several goroutines at
// once — small chunk sizes force heavy data-frame interleaving on the
// shared connections — and verifies each stream reassembled its own
// file's exact bytes, while plain RPC reads run alongside on the same
// sockets. Run only while the cluster is healthy, so any error is a
// violation.
func checkStreamIntegrity(cl *fs.Client, names []string, acceptable map[string][][]byte) *Failure {
	const rounds = 2
	errCh := make(chan *Failure, 2*len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			// Vary the chunk schedule per file so frame boundaries differ
			// across the interleaved streams.
			opts := fs.StreamOptions{ChunkBytes: 512 << (i % 4), Window: 1 + i%4}
			for r := 0; r < rounds; r++ {
				rd, err := cl.OpenRead(name, opts)
				if err != nil {
					errCh <- failf("stream", "open stream %s on healthy cluster: %v", name, err)
					return
				}
				data, err := io.ReadAll(rd)
				rd.Close()
				if err != nil {
					errCh <- failf("stream", "stream %s on healthy cluster: %v", name, err)
					return
				}
				if !bytes.Equal(data, acceptable[name][0]) {
					errCh <- failf("stream", "stream %s reassembled %d bytes of someone else's content (crossed stream ids)", name, len(data))
					return
				}
			}
		}(i, name)
		// Interleave RPC traffic on the same multiplexed connections.
		if i%2 == 0 {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				data, _, err := cl.Read(name)
				if err != nil {
					errCh <- failf("stream", "rpc read %s beside streams: %v", name, err)
					return
				}
				if !bytes.Equal(data, acceptable[name][0]) {
					errCh <- failf("stream", "rpc read %s beside streams returned crossed content", name)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errCh)
	for f := range errCh {
		return f
	}
	return nil
}

// anyEqual reports whether data matches one of the candidates.
func anyEqual(data []byte, candidates [][]byte) bool {
	for _, c := range candidates {
		if bytes.Equal(data, c) {
			return true
		}
	}
	return false
}

// waitHealthy polls the server's health view.
func waitHealthy(srv *fs.Server, idx int, want bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if srv.Healthy()[idx] == want {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("live: node %d never became healthy=%v", idx, want)
}
