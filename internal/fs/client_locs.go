// The client's location cache and its access reports (DESIGN.md §8): a
// read of a file the client has already located goes straight to the
// file's node, and the server still counts it, once, from a batched
// report instead of a lookup.
package fs

import (
	"errors"
	"sync"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

const (
	// locCacheCap bounds the location cache; a full cache forgets an
	// arbitrary entry for each one it learns.
	locCacheCap = 1 << 14
	// reportBatch is how many cached reads a report waits for at most.
	reportBatch = 64
	// reportDelay is how long a cached read waits at most before a report
	// carries it to the server.
	reportDelay = 2 * time.Millisecond
)

// location is where a file lives: its id and its owning node.
type location struct {
	id   int64
	node string
}

// pendingReads is one file's reads not yet reported.
type pendingReads struct {
	count       int64
	first, last time.Time
}

// merge folds q's reads into p's.
func (p pendingReads) merge(q pendingReads) pendingReads {
	if p.count == 0 || q.first.Before(p.first) {
		p.first = q.first
	}
	if q.last.After(p.last) {
		p.last = q.last
	}
	p.count += q.count
	return p
}

// reports gathers the reads served from the location cache and sends
// them to the server as one TAccessReq: at reportBatch reads, reportDelay
// after the first one, and — synchronously — before a Prefetch or a
// Stats and on Close.
type reports struct {
	mu      sync.Mutex
	pending map[int64]pendingReads
	n       int64 // reads in pending
	timer   *time.Timer
	armed   bool
	closed  bool

	// sendMu makes reports leave one at a time, so a synchronous flush
	// returns only after every read noted before it has reached the
	// server, including those in a report another goroutine was sending.
	sendMu sync.Mutex

	// plantDrop is the conservation oracle's planted bug: the first
	// report is dropped instead of sent.
	plantDrop bool
}

// cached returns where name was last found, if the client knows.
func (c *Client) cached(name string) (location, bool) {
	c.locMu.RLock()
	loc, ok := c.locs[name]
	c.locMu.RUnlock()
	return loc, ok
}

// remember records where name lives.
func (c *Client) remember(name string, loc location) {
	c.locMu.Lock()
	defer c.locMu.Unlock()
	if _, ok := c.locs[name]; !ok && len(c.locs) >= locCacheCap {
		for old := range c.locs {
			delete(c.locs, old)
			break
		}
	}
	c.locs[name] = loc
}

// forget drops what the client knows of name's location.
func (c *Client) forget(name string) {
	c.locMu.Lock()
	delete(c.locs, name)
	c.locMu.Unlock()
}

// stale reports whether a read at a known location failed in a way a
// stale location explains: the node is gone, or no longer holds the id.
// Any other failure the node gave for the very file the client asked
// for — an id names one file only — so a lookup would change nothing.
func stale(err error) bool {
	return err != nil && (isTransportErr(err) || errors.Is(err, ErrFileNotFound) || errors.Is(err, ErrNodeUnavailable))
}

// noteRead records one read of file id served without a lookup.
func (c *Client) noteRead(id int64) {
	r := &c.rep
	now := time.Now() // reads racing here may take their times out of order: merge orders them
	r.mu.Lock()
	r.pending[id] = r.pending[id].merge(pendingReads{count: 1, first: now, last: now})
	r.n++
	switch {
	case r.closed:
	case r.n == reportBatch:
		r.armed = true
		r.timer.Reset(0)
	case !r.armed:
		r.armed = true
		r.timer.Reset(reportDelay)
	}
	r.mu.Unlock()
}

// flushReports sends every pending read to the server. final marks the
// client closed first, so no later report is attempted. A report that
// did not reach a primary goes back into pending, for the next flush; one
// a server refused is dropped, since sending it again would only repeat
// the refusal.
func (c *Client) flushReports(final bool, parent *telemetry.Span) error {
	r := &c.rep
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = final
	r.armed = false
	batch := r.pending
	if len(batch) == 0 {
		r.mu.Unlock()
		return nil
	}
	r.pending, r.n = make(map[int64]pendingReads, len(batch)), 0
	r.mu.Unlock()

	now := time.Now()
	req := proto.AccessReq{Records: make([]proto.AccessAge, 0, len(batch))}
	for id, p := range batch {
		req.Records = append(req.Records, proto.AccessAge{
			FileID: id, Count: p.count,
			FirstAge: now.Sub(p.first).Seconds(), LastAge: now.Sub(p.last).Seconds(),
		})
	}
	if r.plantDrop {
		r.plantDrop = false
		return nil
	}
	_, _, err := c.serverRT(proto.TAccessReq, req.Encode(), parent)
	if !final && (isTransportErr(err) || errors.Is(err, ErrNotPrimary)) {
		r.mu.Lock()
		for id, p := range batch {
			r.n += p.count
			r.pending[id] = r.pending[id].merge(p)
		}
		r.mu.Unlock()
	}
	return err
}
