package fs

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"path/filepath"
	"reflect"
	"time"

	"eevfs/internal/disk"
)

// LocalConfig shapes an in-process cluster (StartLocal).
type LocalConfig struct {
	// Nodes and Servers count the storage nodes and the metadata servers;
	// more than one server forms a replicated group.
	Nodes, Servers int
	// Dir holds node i's disks in Dir/node<i>.
	Dir string
	// Node and Server, when set, adjust node i's and server i's config
	// before it first starts; a restart reuses the adjusted config.
	Node   func(i int, c *NodeConfig)
	Server func(i int, c *ServerConfig)
}

// Local is a whole cluster — storage nodes and a metadata server or
// group — running in this process on loopback: eevfsload's in-process
// mode, the simtest live arm and the tests all boot theirs here.
type Local struct {
	// Nodes and Servers are the running daemons and Addrs the servers'
	// client addresses, by index; a restart replaces a daemon's entry.
	Nodes   []*Node
	Servers []*Server
	Addrs   []string

	nodeCfg []NodeConfig
	srvCfg  []ServerConfig
}

// StartLocal boots cfg.Nodes storage nodes, then cfg.Servers metadata
// servers over them. Every server's listener is bound before any server
// starts, so each member of a group knows the whole peer list and server
// 0 boots as primary; a single server runs standalone. Unless a hook says
// otherwise, nodes run two Type-1 data disks with a 5 s idle threshold at
// 2000x model time, and every daemon logs nowhere.
func StartLocal(cfg LocalConfig) (_ *Local, err error) {
	if cfg.Nodes < 1 || cfg.Servers < 1 || cfg.Dir == "" {
		return nil, fmt.Errorf("fs: a local cluster needs a directory, a node and a server; got %q, %d nodes, %d servers", cfg.Dir, cfg.Nodes, cfg.Servers)
	}
	l := &Local{}
	var lns []net.Listener
	defer func() {
		if err != nil {
			for _, ln := range lns {
				ln.Close() // a second close of a started server's is harmless
			}
			l.Close()
		}
	}()
	quiet := log.New(io.Discard, "", 0)
	var nodeAddrs []string
	for i := 0; i < cfg.Nodes; i++ {
		c := NodeConfig{
			Addr:             "127.0.0.1:0",
			RootDir:          filepath.Join(cfg.Dir, fmt.Sprintf("node%d", i)),
			DataDisks:        2,
			DataModel:        disk.ModelType1,
			BufferModel:      disk.ModelType1,
			IdleThresholdSec: 5,
			TimeScale:        2000,
			Logger:           quiet,
		}
		if cfg.Node != nil {
			cfg.Node(i, &c)
		}
		var n *Node
		if n, err = StartNode(c); err != nil {
			return nil, err
		}
		c.Addr = n.Addr() // a restart comes back here
		l.Nodes, l.nodeCfg = append(l.Nodes, n), append(l.nodeCfg, c)
		nodeAddrs = append(nodeAddrs, c.Addr)
	}
	for range cfg.Servers {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		lns, l.Addrs = append(lns, ln), append(l.Addrs, ln.Addr().String())
	}
	for i, ln := range lns {
		c := ServerConfig{Addr: l.Addrs[i], NodeAddrs: nodeAddrs, Logger: quiet}
		if cfg.Servers > 1 {
			c.Peers, c.Self = l.Addrs, i
		}
		if cfg.Server != nil {
			cfg.Server(i, &c)
		}
		l.srvCfg = append(l.srvCfg, c)
		c.listener = ln
		var srv *Server
		if srv, err = StartServer(c); err != nil {
			return nil, err
		}
		l.Servers = append(l.Servers, srv)
	}
	return l, nil
}

// RestartNode stops node i, if it runs, and starts it again on its old
// address and root.
func (l *Local) RestartNode(i int) error {
	l.Nodes[i].Close()
	n, err := StartNode(l.nodeCfg[i])
	if err != nil {
		return err
	}
	l.Nodes[i] = n
	return nil
}

// RestartServer stops server i, if it runs, and starts it again on its
// old address from its old config, so from its StateFile when it has
// one; a group member rejoins the group.
func (l *Local) RestartServer(i int) error {
	l.Servers[i].Close()
	srv, err := StartServer(l.srvCfg[i])
	if err != nil {
		return err
	}
	l.Servers[i] = srv
	return nil
}

// Primary waits up to timeout for exactly one running server to claim
// primary and returns its index.
func (l *Local) Primary(timeout time.Duration) (int, error) {
	for deadline := time.Now().Add(timeout); ; time.Sleep(5 * time.Millisecond) {
		idx, claims := -1, 0
		for i, s := range l.Servers {
			if !s.lis.closed() && s.IsPrimary() {
				idx, claims = i, claims+1
			}
		}
		if claims == 1 {
			return idx, nil
		}
		if time.Now().After(deadline) {
			return -1, errors.New("fs: no unique primary emerged")
		}
	}
}

// Converged waits up to timeout until every running server reports the
// primary's file table.
func (l *Local) Converged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for ; ; time.Sleep(5 * time.Millisecond) {
		pi, err := l.Primary(time.Until(deadline))
		if err != nil {
			return err
		}
		want, diverge := l.Servers[pi].Files(), ""
		for i, s := range l.Servers {
			if i == pi || s.lis.closed() {
				continue
			}
			if got := s.Files(); !reflect.DeepEqual(got, want) {
				diverge = fmt.Sprintf("server %d reports %d files, primary %d reports %d", i, len(got), pi, len(want))
				break
			}
		}
		if diverge == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fs: replicas never converged: %s", diverge)
		}
	}
}

// Close stops every server, then every node, each in reverse order of
// start. A second Close does nothing.
func (l *Local) Close() {
	for i := len(l.Servers) - 1; i >= 0; i-- {
		l.Servers[i].Close()
	}
	for i := len(l.Nodes) - 1; i >= 0; i-- {
		l.Nodes[i].Close()
	}
}
