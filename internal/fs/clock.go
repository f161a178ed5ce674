// Package fs is the EEVFS prototype over real TCP sockets: a storage
// server daemon that owns coarse metadata and popularity, storage node
// daemons that manage directories standing in for buffer and data disks,
// and a client library (Section IV of the paper).
//
// Disks are directories, but their performance and power behaviour comes
// from the same disk.Model state machines the simulator uses: service and
// transition latencies are injected as (scaled) sleeps, and energy is
// integrated over the model-time dwell in each state. TimeScale > 1 runs
// the model faster than real time, which is how the test suite exercises
// spin-downs in milliseconds.
package fs

import (
	"time"

	"eevfs/internal/simtime"
)

// Clock maps wall-clock time to model seconds. TimeScale is the number of
// model seconds that elapse per real second (1 = real time).
type Clock struct {
	start time.Time
	scale float64
}

// NewClock starts a model clock. Scale <= 0 defaults to 1.
func NewClock(scale float64) *Clock {
	if scale <= 0 {
		scale = 1
	}
	return &Clock{start: time.Now(), scale: scale}
}

// Now returns the current model time.
func (c *Clock) Now() simtime.Time {
	return simtime.Time(time.Since(c.start).Seconds() * c.scale)
}

// Scale returns the model-seconds-per-real-second factor.
func (c *Clock) Scale() float64 { return c.scale }

// RealDuration converts a model duration to the real duration it takes.
func (c *Clock) RealDuration(modelSec float64) time.Duration {
	return time.Duration(modelSec / c.scale * float64(time.Second))
}
