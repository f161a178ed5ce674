package cluster

import (
	"fmt"

	"eevfs/internal/disk"
	"eevfs/internal/simtime"
	"eevfs/internal/telemetry"
)

// opLabel returns the journal/metric label of one disk work kind.
func opLabel(k opKind) string {
	switch k {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opFlush:
		return "flush"
	case opInsert:
		return "insert"
	case opPrefRead:
		return "prefetch-read"
	default:
		return "other"
	}
}

// simMetrics pre-resolves every handle the simulator's hot path touches,
// so no registry lock is taken during replay. With a nil registry every
// handle is nil and each update is a single nil check.
type simMetrics struct {
	requests       *telemetry.Counter
	bufferHits     *telemetry.Counter
	bufferMisses   *telemetry.Counter
	bufferedWrites *telemetry.Counter
	directWrites   *telemetry.Counter
	spinUps        *telemetry.Counter
	spinDowns      *telemetry.Counter
	respSeconds    *telemetry.Histogram
	waitSeconds    *telemetry.Histogram

	// Adaptive-arm instrumentation: the spin-down threshold in effect
	// each time a disk is armed, and churn-triggered reprefetches.
	adaptiveThreshold    *telemetry.Histogram
	adaptiveReprefetches *telemetry.Counter
	queueMax             *telemetry.Gauge // the event engine's queue high-water
}

func newSimMetrics(reg *telemetry.Registry) simMetrics {
	return simMetrics{
		requests:       reg.Counter("sim.requests"),
		bufferHits:     reg.Counter("sim.buffer.hits"),
		bufferMisses:   reg.Counter("sim.buffer.misses"),
		bufferedWrites: reg.Counter("sim.buffer.writes"),
		directWrites:   reg.Counter("sim.writes.direct"),
		spinUps:        reg.Counter("sim.disk.spinups"),
		spinDowns:      reg.Counter("sim.disk.spindowns"),
		respSeconds:    reg.Histogram("sim.response.seconds", nil),
		waitSeconds:    reg.Histogram("sim.queue.wait.seconds", nil),

		adaptiveThreshold:    reg.Histogram("sim.adaptive.threshold", nil),
		adaptiveReprefetches: reg.Counter("sim.adaptive.reprefetches"),
		queueMax:             reg.Gauge("sim.engine.queue.max"),
	}
}

// instrumentDisk installs the telemetry observer on one simulated disk and
// journals its initial state, so the exported timeline starts with a
// well-defined dwell on every track. No observer is installed when both
// sinks are off: the disk's transition path stays branch-free.
func (s *sim) instrumentDisk(sd *simDisk, name string) {
	sd.name = name
	if s.cfg.Metrics == nil && s.jour == nil {
		return
	}
	s.jour.Append(telemetry.Event{
		Kind: telemetry.KindState, Subject: name, Detail: disk.Idle.String(),
	})
	sd.d.SetObserver(func(now simtime.Time, from, to disk.PowerState) {
		switch to {
		case disk.SpinningUp:
			s.met.spinUps.Inc()
		case disk.SpinningDown:
			s.met.spinDowns.Inc()
		}
		s.jour.Append(telemetry.Event{
			TimeS: float64(now), Kind: telemetry.KindState,
			Subject: name, Detail: to.String(),
		})
	})
}

// noteService journals one completed disk service with its queue wait and
// feeds the wait histogram. startAt/endAt bracket the service itself.
func (s *sim) noteService(d *simDisk, r *request, endAt simtime.Time) {
	wait := float64(r.startAt - r.enqAt)
	s.met.waitSeconds.Observe(wait)
	if s.jour == nil {
		return
	}
	s.jour.Append(telemetry.Event{
		TimeS: float64(r.startAt), Kind: telemetry.KindService,
		Subject: d.name, Detail: opLabel(r.kind),
		DurS: float64(endAt - r.startAt), WaitS: wait,
	})
}

// noteResponse records one client-visible completion in the metrics and
// the journal.
func (s *sim) noteResponse(r *request, rt float64) {
	s.met.requests.Inc()
	s.met.respSeconds.Observe(rt)
	if s.jour == nil {
		return
	}
	s.jour.Append(telemetry.Event{
		TimeS: float64(r.sentAt), Kind: telemetry.KindRequest,
		Subject: fmt.Sprintf("file:%d", r.fileID), Detail: opLabel(r.kind),
		DurS: rt,
	})
}
