// Package netmodel models the cluster's network links (Table I: 1 Gb/s
// NICs on Type 1 storage nodes and the server, 100 Mb/s on Type 2 nodes).
//
// Each storage node returns file data to clients over its own NIC
// (Section IV-A step 6: the node "establishes a connection with the client
// and passes the data"), so the link is modeled as a FIFO resource that
// serializes outbound transfers: a transfer enqueued while another is in
// flight starts when the previous one finishes.
package netmodel

import (
	"fmt"

	"eevfs/internal/simtime"
)

// Link is a serialized FIFO network link. Not safe for concurrent use;
// the simulator is single-threaded per run.
type Link struct {
	name      string  // for panic messages
	mbps      float64 // megabits per second
	latency   float64 // per-transfer latency in seconds
	busyUntil simtime.Time
}

// NewLink creates a link with the given capacity in Mb/s and per-transfer
// latency in seconds. It panics on non-positive capacity (a construction
// bug, not runtime input).
func NewLink(name string, mbps, latencySec float64) *Link {
	if mbps <= 0 {
		panic(fmt.Sprintf("netmodel: link %q capacity %g Mb/s", name, mbps))
	}
	if latencySec < 0 {
		panic(fmt.Sprintf("netmodel: link %q negative latency", name))
	}
	return &Link{name: name, mbps: mbps, latency: latencySec}
}

// TransferTime returns the wire time for size bytes, excluding queueing
// and latency.
func (l *Link) TransferTime(size int64) float64 {
	if size <= 0 {
		return 0
	}
	return float64(size) * 8 / (l.mbps * 1e6)
}

// Reserve enqueues a transfer of size bytes at time now and returns when
// it starts and completes. Transfers are served FIFO in Reserve-call
// order; now must be nondecreasing across calls relative to the
// simulation clock (enforced: panics on time travel).
func (l *Link) Reserve(now simtime.Time, size int64) (start, end simtime.Time) {
	if size < 0 {
		panic(fmt.Sprintf("netmodel: link %q negative transfer size %d", l.name, size))
	}
	start = now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	dur := l.latency + l.TransferTime(size)
	end = start + simtime.Time(dur)
	l.busyUntil = end
	return start, end
}
