// Package faultnet provides scriptable fault injection for TCP
// connections: a dialer and net.Listener wrapper whose connections can be
// degraded per endpoint with added latency, bandwidth caps, byte-level
// corruption, mid-stream connection drops, dial refusal, and full
// partitions. The chaos test suite uses it to exercise the EEVFS network
// path (server <-> node and client <-> server/node) under failure.
//
// Faults are keyed by target address and looked up live on every
// operation, so a partition applied after a connection is established
// still black-holes it. All randomness comes from one seeded source, so a
// given fault script plus operation sequence is deterministic.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Fault describes the failures injected on connections to one endpoint.
// The zero value is a clean network.
type Fault struct {
	// Latency is added once to every Read and Write call.
	Latency time.Duration
	// BandwidthBps caps throughput: each operation additionally sleeps
	// bytes/bandwidth. Zero means unlimited.
	BandwidthBps int64
	// CorruptEvery flips one byte per CorruptEvery bytes transferred
	// (deterministic byte positions). Zero disables corruption.
	CorruptEvery int64
	// DropAfterBytes kills a connection with a reset-style error once it
	// has moved this many bytes in either direction, simulating a
	// mid-message connection loss. Zero disables dropping.
	DropAfterBytes int64
	// DropConns limits DropAfterBytes to the next DropConns dialed or
	// accepted connections; the budget decrements as connections are
	// created and later connections are clean. Zero applies the drop to
	// every connection (including ones established before the fault).
	DropConns int
	// RefuseDials fails the next RefuseDials dials with a
	// connection-refused error; -1 refuses every dial.
	RefuseDials int
	// Partition black-holes the endpoint: dials fail, reads block until
	// the connection's deadline (or a heal), and writes are swallowed.
	Partition bool
}

// rule is the live state behind one endpoint's Fault.
type rule struct {
	f         Fault
	dropsLeft int // connections still subject to DropAfterBytes (when DropConns > 0)
	refusals  int // dials still to refuse (-1 = all)
}

// Network is a fault-injecting transport. The zero value is not usable;
// call New.
type Network struct {
	seed  int64
	mu    sync.Mutex
	rules map[string]*rule
}

// New returns a Network whose randomized fault choices (e.g. which byte
// of a corruption window flips) derive from seed, so a fault script plus
// operation sequence replays identically.
func New(seed int64) *Network {
	return &Network{seed: seed, rules: make(map[string]*rule)}
}

// SetFault installs (replacing) the fault script for one address.
func (nw *Network) SetFault(addr string, f Fault) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.rules[addr] = &rule{f: f, dropsLeft: f.DropConns, refusals: f.RefuseDials}
}

// Clear removes all faults for the address.
func (nw *Network) Clear(addr string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	delete(nw.rules, addr)
}

// Partition fully partitions the address, preserving any other installed
// faults for it.
func (nw *Network) Partition(addr string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r, ok := nw.rules[addr]
	if !ok {
		r = &rule{}
		nw.rules[addr] = r
	}
	r.f.Partition = true
}

// Heal removes every fault for the address (alias of Clear, reads better
// in chaos scripts).
func (nw *Network) Heal(addr string) { nw.Clear(addr) }

// consumeDropBudget decrements the per-connection drop budget for addr,
// reporting whether a connection created now claims one of the DropConns
// slots. Only meaningful when DropConns > 0; with DropConns == 0 the drop
// applies to every connection and no budget is tracked.
func (nw *Network) consumeDropBudget(addr string) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r, ok := nw.rules[addr]
	if !ok || r.f.DropAfterBytes <= 0 || r.f.DropConns <= 0 {
		return false
	}
	if r.dropsLeft > 0 {
		r.dropsLeft--
		return true
	}
	return false
}

// fault returns the live fault for addr (no budget accounting).
func (nw *Network) fault(addr string) Fault {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if r, ok := nw.rules[addr]; ok {
		return r.f
	}
	return Fault{}
}

// refuse consumes one dial-refusal token, reporting whether this dial
// must fail.
func (nw *Network) refuse(addr string) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r, ok := nw.rules[addr]
	if !ok {
		return false
	}
	if r.f.Partition || r.refusals < 0 {
		return true
	}
	if r.refusals > 0 {
		r.refusals--
		return true
	}
	return false
}

// Dial opens a faulty connection to addr, honouring the address's fault
// script. It satisfies the EEVFS transport's Dialer contract.
func (nw *Network) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if nw.refuse(addr) {
		return nil, &net.OpError{Op: "dial", Net: "tcp",
			Err: fmt.Errorf("faultnet: connection refused (injected)")}
	}
	inner, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return nw.wrap(inner, addr), nil
}

// Listen binds a TCP listener whose accepted connections inject the
// faults registered for the listener's own address (server-side faults).
func (nw *Network) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: ln, nw: nw}, nil
}

type listener struct {
	net.Listener
	nw *Network
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.nw.wrap(c, l.Addr().String()), nil
}

func (nw *Network) wrap(inner net.Conn, addr string) *Conn {
	return &Conn{
		inner:  inner,
		nw:     nw,
		addr:   addr,
		drop:   nw.consumeDropBudget(addr),
		closed: make(chan struct{}),
	}
}

// Conn is a net.Conn that injects the faults registered for its remote
// address. Faults are re-read on every operation.
type Conn struct {
	inner net.Conn
	nw    *Network
	addr  string
	drop  bool // claimed one of the DropConns budget slots

	mu            sync.Mutex
	moved         int64 // bytes transferred in either direction
	readDeadline  time.Time
	writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// errTimeout is returned when an injected block outlives the deadline; it
// satisfies net.Error with Timeout() == true so retry policies classify
// it like a real socket timeout.
type errTimeout struct{}

func (errTimeout) Error() string   { return "faultnet: i/o timeout (partitioned)" }
func (errTimeout) Timeout() bool   { return true }
func (errTimeout) Temporary() bool { return true }

// errDropped is the injected mid-stream connection loss.
var errDropped = &net.OpError{Op: "read", Net: "tcp",
	Err: fmt.Errorf("faultnet: connection reset (injected drop)")}

func (c *Conn) deadline(read bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if read {
		return c.readDeadline
	}
	return c.writeDeadline
}

// awaitPartition blocks while the address is partitioned. It returns nil
// once healed, or a timeout error when the deadline passes first.
func (c *Conn) awaitPartition(read bool) error {
	for c.nw.fault(c.addr).Partition {
		d := c.deadline(read)
		if !d.IsZero() && !time.Now().Before(d) {
			return errTimeout{}
		}
		select {
		case <-c.closed:
			return net.ErrClosed
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// throttle sleeps for the injected latency plus the bandwidth share of n
// bytes, but never past the deadline.
func (c *Conn) throttle(f Fault, n int, read bool) {
	delay := f.Latency
	if f.BandwidthBps > 0 && n > 0 {
		delay += time.Duration(float64(n) / float64(f.BandwidthBps) * float64(time.Second))
	}
	if delay <= 0 {
		return
	}
	if d := c.deadline(read); !d.IsZero() {
		if until := time.Until(d); until < delay {
			delay = until
		}
	}
	if delay > 0 {
		select {
		case <-c.closed:
		case <-time.After(delay):
		}
	}
}

// checkDrop enforces DropAfterBytes against the bytes moved so far. With
// DropConns == 0 every connection (even one established before the fault)
// is subject; otherwise only connections that claimed a budget slot.
func (c *Conn) checkDrop(f Fault) error {
	if f.DropAfterBytes <= 0 || (f.DropConns > 0 && !c.drop) {
		return nil
	}
	c.mu.Lock()
	exceeded := c.moved >= f.DropAfterBytes
	c.mu.Unlock()
	if exceeded {
		c.inner.Close()
		return errDropped
	}
	return nil
}

func (c *Conn) account(n int) {
	c.mu.Lock()
	c.moved += int64(n)
	c.mu.Unlock()
}

// splitmix is the SplitMix64 mixer, used to pick deterministic
// pseudo-random corruption positions without shared rng state.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// CorruptBytes applies the corruption mode in place: within each
// `every`-byte window of the stream, one byte (chosen from seed and the
// window index) is bit-flipped. start is the stream offset of b[0]; the
// offset after b is returned. Exported so fuzz tests can drive the exact
// corruption a Conn applies.
func CorruptBytes(b []byte, every, start, seed int64) int64 {
	if every <= 0 {
		return start + int64(len(b))
	}
	for i := range b {
		off := start + int64(i)
		win := off / every
		pos := int64(splitmix(uint64(seed)^uint64(win)) % uint64(every))
		if off%every == pos {
			b[i] ^= 0xFF
		}
	}
	return start + int64(len(b))
}

func (c *Conn) corrupt(f Fault, b []byte) {
	if f.CorruptEvery <= 0 {
		return
	}
	c.mu.Lock()
	start := c.moved
	c.mu.Unlock()
	CorruptBytes(b, f.CorruptEvery, start, c.nw.seed)
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	f := c.nw.fault(c.addr)
	if f.Partition {
		if err := c.awaitPartition(true); err != nil {
			return 0, err
		}
		f = c.nw.fault(c.addr)
	}
	if err := c.checkDrop(f); err != nil {
		return 0, err
	}
	c.throttle(f, 0, true)
	n, err := c.inner.Read(p)
	if n > 0 {
		c.corrupt(f, p[:n])
		c.account(n)
		c.throttle(f, n, true)
	}
	return n, err
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	f := c.nw.fault(c.addr)
	if f.Partition {
		// Black hole: the bytes vanish but the sender sees success, like
		// a TCP peer that stopped ACKing with buffer space left.
		c.throttle(f, len(p), false)
		return len(p), nil
	}
	if err := c.checkDrop(f); err != nil {
		return 0, err
	}
	c.throttle(f, len(p), false)
	out := p
	if f.CorruptEvery > 0 {
		out = append([]byte(nil), p...)
		c.corrupt(f, out)
	}
	n, err := c.inner.Write(out)
	c.account(n)
	return n, err
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.inner.Close()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}
