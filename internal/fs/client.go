package fs

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// ClientConfig configures a client's transport behavior.
type ClientConfig struct {
	// Dialer opens connections to the server and nodes (nil = plain TCP).
	Dialer proto.Dialer
	// Transport bounds and retries every round trip.
	Transport proto.TransportConfig
	// FailoverRetries bounds how many extra attempts a server operation
	// gets across not-primary redirects and — with multiple server
	// addresses — server transport faults (default 8; -1 disables).
	FailoverRetries int
	// FailoverBackoff is the base pause between failover attempts; it
	// grows linearly so a group mid-election has time to settle
	// (default 25ms).
	FailoverBackoff time.Duration
	// Tracer, when set, opens a root span per client operation and a
	// child span per server/node round trip, propagating the trace
	// context on the wire so the daemons' spans join the same tree.
	// Nil disables tracing.
	Tracer *telemetry.Tracer
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.FailoverRetries == 0 {
		c.FailoverRetries = 8
	}
	if c.FailoverRetries < 0 {
		c.FailoverRetries = 0
	}
	if c.FailoverBackoff == 0 {
		c.FailoverBackoff = 25 * time.Millisecond
	}
	return c
}

// Client talks to a storage server for metadata and directly to storage
// nodes for data (steps 5-6 of the paper's process flow). Safe for
// concurrent use: every endpoint multiplexes its one connection, so any
// number of goroutines can have round trips in flight to the server and
// to each node simultaneously, correlated by request id.
//
// A read of a file the client has located before — by creating it, or by
// a lookup the server marked cacheable — skips the server and goes to the
// file's node; a failure there that a stale location explains drops the
// location and falls back once to lookup-then-read. The server still
// counts every such read, from the client's batched access reports
// (client_locs.go).
//
// Against a replicated server group the client tracks which member it
// believes is primary: a typed not-primary rejection switches it to the
// redirect hint, and a transport fault rotates it to the next known
// address. All of that happens inside serverRT, so callers see at most
// a typed error after the retry budget runs out.
type Client struct {
	cfg     ClientConfig
	servers []string // all known server addresses, dial order

	mu      sync.Mutex
	current string // address currently believed primary
	eps     map[string]*proto.Endpoint
	nodes   map[string]*proto.Endpoint

	locMu sync.RWMutex
	locs  map[string]location // name -> where it was last found
	rep   reports
}

// Dial connects to the storage server with default transport settings.
func Dial(serverAddr string) (*Client, error) {
	return DialConfig(serverAddr, ClientConfig{})
}

// DialConfig connects to the storage server with explicit transport
// settings.
func DialConfig(serverAddr string, cfg ClientConfig) (*Client, error) {
	return DialCluster([]string{serverAddr}, cfg)
}

// DialCluster connects to a replicated server group. The first
// reachable address becomes the believed primary; serverRT follows
// not-primary redirects from there.
func DialCluster(serverAddrs []string, cfg ClientConfig) (*Client, error) {
	if len(serverAddrs) == 0 {
		return nil, errors.New("fs: no server addresses")
	}
	c := &Client{
		cfg:     cfg.withDefaults(),
		servers: append([]string(nil), serverAddrs...),
		eps:     make(map[string]*proto.Endpoint),
		nodes:   make(map[string]*proto.Endpoint),
		locs:    make(map[string]location),
	}
	c.rep.pending = make(map[int64]pendingReads)
	c.rep.timer = time.AfterFunc(time.Hour, func() { c.flushReports(false, nil) })
	c.rep.timer.Stop()
	var firstErr error
	for _, addr := range c.servers {
		if err := c.serverEp(addr).Connect(); err == nil {
			c.mu.Lock()
			c.current = addr
			c.mu.Unlock()
			return c, nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	c.Close()
	return nil, fmt.Errorf("fs: dialing server %s: %w", c.servers[0], firstErr)
}

// Close reports the reads not yet counted, then shuts down all
// connections.
func (c *Client) Close() error {
	err := c.flushReports(true, nil)
	c.rep.timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ep := range c.eps {
		if cerr := ep.Close(); err == nil {
			err = cerr
		}
	}
	c.eps = map[string]*proto.Endpoint{}
	for _, ep := range c.nodes {
		ep.Close()
	}
	c.nodes = map[string]*proto.Endpoint{}
	return err
}

// serverEp returns the (cached) endpoint for one server address.
func (c *Client) serverEp(addr string) *proto.Endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep, ok := c.eps[addr]
	if !ok {
		ep = proto.NewEndpoint(addr, c.cfg.Dialer, c.cfg.Transport)
		c.eps[addr] = ep
	}
	return ep
}

// currentServer returns the address currently believed primary.
func (c *Client) currentServer() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == "" {
		c.current = c.servers[0]
	}
	return c.current
}

// switchServer repoints the client at addr (a redirect hint), learning
// it if it was not in the configured list.
func (c *Client) switchServer(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.current = addr
	known := false
	for _, a := range c.servers {
		if a == addr {
			known = true
			break
		}
	}
	if !known {
		c.servers = append(c.servers, addr)
	}
}

// rotateServer advances from a failed address to the next configured
// one, unless a concurrent operation already moved on.
func (c *Client) rotateServer(failed string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current != failed {
		return
	}
	for i, a := range c.servers {
		if a == failed {
			c.current = c.servers[(i+1)%len(c.servers)]
			return
		}
	}
	c.current = c.servers[0]
}

// startOp opens the root span of one client operation (nil when tracing
// is off). name is the span's full constant name, "client.read" say, so
// an untraced operation builds no string.
func (c *Client) startOp(name, file string) *telemetry.Span {
	sp := c.cfg.Tracer.StartRoot("client", name)
	if file != "" {
		sp.Annotate("file", file)
	}
	return sp
}

// serverRT performs one round trip against the believed primary,
// following not-primary redirects and rotating on transport faults
// while the retry budget lasts. Remote failures come back re-typed so
// callers can errors.Is against the fs sentinels. Each attempt gets its
// own child span under parent, annotated with the peer tried and any
// redirect followed, so the trace tree shows the whole failover walk.
func (c *Client) serverRT(t proto.Type, payload []byte, parent *telemetry.Span) (proto.Type, []byte, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.FailoverRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * c.cfg.FailoverBackoff)
		}
		addr := c.currentServer()
		att := parent.Child("client.rt.server")
		att.Annotate("peer", addr)
		if attempt > 0 {
			att.Annotate("retry", strconv.Itoa(attempt))
		}
		rt, rp, err := c.serverEp(addr).CallCtx(t, payload, att.Context())
		if err == nil {
			att.Finish()
			return rt, rp, nil
		}
		lastErr = mapRemote(err)
		switch {
		case errors.Is(lastErr, ErrNotPrimary):
			if hint := redirectHint(err); hint != "" && hint != addr {
				att.Annotate("redirect", hint)
				c.switchServer(hint)
			} else {
				c.rotateServer(addr)
			}
			att.End(lastErr)
		case isTransportErr(err) && len(c.servers) > 1:
			c.rotateServer(addr)
			att.End(lastErr)
		default:
			att.End(lastErr)
			return rt, rp, lastErr
		}
	}
	return 0, nil, lastErr
}

// nodeEp returns the (cached) endpoint for one storage-node address.
func (c *Client) nodeEp(addr string) *proto.Endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep, ok := c.nodes[addr]
	if !ok {
		ep = proto.NewEndpoint(addr, c.cfg.Dialer, c.cfg.Transport)
		c.nodes[addr] = ep
	}
	return ep
}

// nodeRT performs one round trip on a (cached) node endpoint. The
// endpoint handles redials, deadlines, and retries; a dead connection is
// always discarded before the next attempt.
func (c *Client) nodeRT(addr string, t proto.Type, payload []byte, parent *telemetry.Span) (proto.Type, []byte, error) {
	ep := c.nodeEp(addr)
	sp := parent.Child("client.rt.node")
	sp.Annotate("peer", addr)
	rt, rp, err := ep.CallCtx(t, payload, sp.Context())
	if err != nil {
		err = mapRemote(err)
	}
	sp.End(err)
	return rt, rp, err
}

// locate asks the server which node holds name, and remembers a
// cacheable answer. t is TLookupReq, or TLookupWriteReq to declare write
// intent (the server invalidates any buffer-disk replica before
// answering).
func (c *Client) locate(name string, t proto.Type, sp *telemetry.Span) (proto.LookupResp, error) {
	_, payload, err := c.serverRT(t, proto.LookupReq{Name: name}.Encode(), sp)
	if err != nil {
		return proto.LookupResp{}, err
	}
	resp, err := proto.DecodeLookupResp(payload)
	if err == nil && resp.Cacheable {
		c.remember(name, location{id: resp.FileID, node: resp.NodeAddr})
	}
	return resp, err
}

// Create registers a new file with the server and uploads its content to
// the assigned storage node.
func (c *Client) Create(name string, data []byte) (err error) {
	if len(data) == 0 {
		return fmt.Errorf("fs: refusing to create empty file %q", name)
	}
	sp := c.startOp("client.create", name)
	defer func() { sp.End(err) }()
	_, payload, err := c.serverRT(proto.TCreateReq,
		proto.CreateReq{Name: name, Size: int64(len(data))}.Encode(), sp)
	if err != nil {
		return err
	}
	resp, err := proto.DecodeCreateResp(payload)
	if err != nil {
		return err
	}
	// The server answers a create once it has committed, so the location
	// is cacheable.
	c.remember(name, location{id: resp.FileID, node: resp.NodeAddr})
	_, _, err = c.nodeRT(resp.NodeAddr, proto.TNodeWriteReq,
		proto.NodeWriteReq{FileID: resp.FileID, Data: data}.Encode(), sp)
	return err
}

// Read fetches a file. fromBuffer reports whether the storage node served
// it from its buffer disk.
func (c *Client) Read(name string) (data []byte, fromBuffer bool, err error) {
	return c.read("client.read", name, func(id int64) (proto.Type, []byte) {
		return proto.TNodeReadReq, proto.NodeReadReq{FileID: id}.Encode()
	})
}

// ReadAt fetches length bytes of a file starting at off. fromBuffer
// reports whether the storage node's buffer disk served the range.
func (c *Client) ReadAt(name string, off, length int64) (data []byte, fromBuffer bool, err error) {
	return c.read("client.readat", name, func(id int64) (proto.Type, []byte) {
		return proto.TNodeReadAtReq, proto.NodeReadAtReq{FileID: id, Offset: off, Length: length}.Encode()
	})
}

// read is the RPC read path: one round trip to the file's node with the
// request req builds for the file's id — straight there when the client
// knows the location, else after locating the file. A read at a known
// location that fails as a stale one would forgets it and locates the
// file once.
func (c *Client) read(op, name string, req func(fileID int64) (proto.Type, []byte)) (data []byte, fromBuffer bool, err error) {
	sp := c.startOp(op, name)
	defer func() { sp.End(err) }()
	if loc, ok := c.cached(name); ok {
		if data, fromBuffer, err = c.readNode(loc.node, loc.id, req, sp); !stale(err) {
			c.noteRead(loc.id)
			return data, fromBuffer, err
		}
		c.forget(name)
	}
	loc, err := c.locate(name, proto.TLookupReq, sp)
	if err != nil {
		return nil, false, err
	}
	return c.readNode(loc.NodeAddr, loc.FileID, req, sp)
}

// readNode reads file id on the node at addr.
func (c *Client) readNode(addr string, id int64, req func(fileID int64) (proto.Type, []byte), sp *telemetry.Span) (data []byte, fromBuffer bool, err error) {
	t, payload := req(id)
	_, payload, err = c.nodeRT(addr, t, payload, sp)
	if err != nil {
		return nil, false, err
	}
	resp, err := proto.DecodeNodeReadResp(payload)
	if err != nil {
		return nil, false, err
	}
	// resp.Data is a view into payload, which the transport allocated for
	// this response alone: the caller can own it without a copy.
	return resp.Data, resp.FromBuffer, nil
}

// Write replaces a file's content. The lookup declares write intent so
// the server can invalidate any buffer-disk replica before the new
// bytes land. buffered reports whether the node's write-buffer area
// absorbed it (Section III-C).
func (c *Client) Write(name string, data []byte) (buffered bool, err error) {
	if len(data) == 0 {
		return false, fmt.Errorf("fs: refusing to write empty content to %q", name)
	}
	sp := c.startOp("client.write", name)
	defer func() { sp.End(err) }()
	loc, err := c.locate(name, proto.TLookupWriteReq, sp)
	if err != nil {
		return false, err
	}
	_, payload, err := c.nodeRT(loc.NodeAddr, proto.TNodeWriteReq,
		proto.NodeWriteReq{FileID: loc.FileID, Data: data}.Encode(), sp)
	if err != nil {
		return false, err
	}
	resp, err := proto.DecodeNodeWriteResp(payload)
	if err != nil {
		return false, err
	}
	return resp.Buffered, nil
}

// List returns all file names.
func (c *Client) List() (names []string, err error) {
	sp := c.startOp("client.list", "")
	defer func() { sp.End(err) }()
	_, payload, err := c.serverRT(proto.TListReq, nil, sp)
	if err != nil {
		return nil, err
	}
	resp, err := proto.DecodeListResp(payload)
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Delete removes a file.
func (c *Client) Delete(name string) (err error) {
	sp := c.startOp("client.delete", name)
	defer func() { sp.End(err) }()
	c.forget(name)
	_, _, err = c.serverRT(proto.TDeleteReq, proto.DeleteReq{Name: name}.Encode(), sp)
	return err
}

// Prefetch asks the server to prefetch the top-k popular files into the
// storage nodes' buffer disks; it returns how many files were copied.
// The server ranks this client's reads so far, all of them reported
// first, but not yet those another client has still to report.
func (c *Client) Prefetch(k int) (count int, err error) {
	sp := c.startOp("client.prefetch", "")
	defer func() { sp.End(err) }()
	if err := c.flushReports(false, sp); err != nil {
		return 0, err
	}
	_, payload, err := c.serverRT(proto.TPrefetchReq, proto.PrefetchReq{K: int64(k)}.Encode(), sp)
	if err != nil {
		return 0, err
	}
	resp, err := proto.DecodePrefetchResp(payload)
	if err != nil {
		return 0, err
	}
	return int(resp.Prefetched), nil
}

// Stats fetches cluster-wide per-disk accounting, this client's reads
// reported first.
func (c *Client) Stats() (resp proto.StatsResp, err error) {
	sp := c.startOp("client.stats", "")
	defer func() { sp.End(err) }()
	if err := c.flushReports(false, sp); err != nil {
		return proto.StatsResp{}, err
	}
	_, payload, err := c.serverRT(proto.TStatsReq, nil, sp)
	if err != nil {
		return proto.StatsResp{}, err
	}
	return proto.DecodeStatsResp(payload)
}
