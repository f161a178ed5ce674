package fs

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"eevfs/internal/simtest/leak"
)

// startLocal boots cfg's cluster in one of t's temporary directories and
// closes it when t ends.
func startLocal(t testing.TB, cfg LocalConfig) *Local {
	t.Helper()
	cfg.Dir = t.TempDir()
	l, err := StartLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

// dialLocal connects a client to l's servers, closed when t ends.
func dialLocal(t testing.TB, l *Local, cfg ClientConfig) *Client {
	t.Helper()
	cl, err := DialCluster(l.Addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// chaosServer puts a server on the chaos tests' policy: chaosTransport's
// round trips, a node declared dead after two strikes of a 20 ms probe,
// and 1 s to write a response.
func chaosServer(c *ServerConfig) {
	c.Transport, c.WriteTimeout = chaosTransport(), time.Second
	c.Health = HealthConfig{FailThreshold: 2, ProbeInterval: 20 * time.Millisecond}
}

// TestLocalRestartsKeepAddressAndState: a restarted node comes back on its
// address with its files, a restarted server on its address with the
// namespace of its state file, and a client reads on through both.
func TestLocalRestartsKeepAddressAndState(t *testing.T) {
	l := startLocal(t, LocalConfig{Nodes: 2, Servers: 1, Server: func(_ int, c *ServerConfig) {
		c.StateFile = filepath.Join(t.TempDir(), "state")
	}})
	cl := dialLocal(t, l, ClientConfig{})
	content := bytes.Repeat([]byte("kept"), 500)
	for _, name := range []string{"a", "b"} { // round-robin: one file per node
		if err := cl.Create(name, content); err != nil {
			t.Fatal(err)
		}
	}
	nodeAddr, nodeFiles := l.Nodes[0].Addr(), l.Nodes[0].Files()
	srvAddr, srvFiles := l.Servers[0].Addr(), l.Servers[0].Files()

	if err := l.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if err := l.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	if got := l.Nodes[0].Addr(); got != nodeAddr {
		t.Errorf("restarted node listens on %s, was %s", got, nodeAddr)
	}
	if got := l.Nodes[0].Files(); !reflect.DeepEqual(got, nodeFiles) {
		t.Errorf("restarted node holds %v, held %v", got, nodeFiles)
	}
	if got := l.Servers[0].Addr(); got != srvAddr || l.Addrs[0] != srvAddr {
		t.Errorf("restarted server listens on %s (Addrs %v), was %s", got, l.Addrs, srvAddr)
	}
	if got := l.Servers[0].Files(); !reflect.DeepEqual(got, srvFiles) {
		t.Errorf("restarted server knows %v, knew %v", got, srvFiles)
	}
	for _, name := range []string{"a", "b"} {
		if got, _, err := cl.Read(name); err != nil || !bytes.Equal(got, content) {
			t.Errorf("read %s after the restarts: %d bytes, %v", name, len(got), err)
		}
	}
}

// TestLocalGroupFailsOver: in a three-server group server 0 boots as
// primary; once it stops a survivor promotes, and server 0 restarted
// rejoins as a follower of the new primary with its namespace.
func TestLocalGroupFailsOver(t *testing.T) {
	l := startLocal(t, LocalConfig{Nodes: 1, Servers: 3, Server: func(_ int, c *ServerConfig) { chaosServer(c) }})
	if pi, err := l.Primary(5 * time.Second); err != nil || pi != 0 {
		t.Fatalf("primary at boot: %d, %v; want server 0", pi, err)
	}
	cl := dialLocal(t, l, ClientConfig{Transport: chaosTransport()})
	if err := cl.Create("before", []byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Servers[0].Close()
	pi, err := l.Primary(10 * time.Second)
	if err != nil || pi == 0 {
		t.Fatalf("primary after server 0 stopped: %d, %v; want a survivor", pi, err)
	}
	if err := cl.Create("after", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := l.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Converged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if again, err := l.Primary(time.Second); err != nil || again != pi {
		t.Fatalf("primary after server 0 rejoined: %d, %v; want %d", again, err, pi)
	}
	if n := len(l.Servers[0].Files()); n != 2 {
		t.Fatalf("rejoined server 0 knows %d files, want 2", n)
	}
}

// TestLocalNeedsNodesAndServers: a cluster without a node, without a
// server or without a directory is refused before anything starts.
func TestLocalNeedsNodesAndServers(t *testing.T) {
	dir := t.TempDir()
	for _, cfg := range []LocalConfig{{Nodes: 0, Servers: 1, Dir: dir}, {Nodes: 1, Servers: 0, Dir: dir}, {Nodes: 1, Servers: 1}} {
		if l, err := StartLocal(cfg); err == nil {
			l.Close()
			t.Errorf("%+v accepted", cfg)
		}
	}
}

// TestLocalCloseTwice: a second Close does nothing, and the first one
// left no goroutine of the group's behind.
func TestLocalCloseTwice(t *testing.T) {
	leak.Check(t)
	l, err := StartLocal(LocalConfig{Nodes: 2, Servers: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close()
}
