package cluster

import (
	"fmt"

	"eevfs/internal/disk"
	"eevfs/internal/simtime"
	"eevfs/internal/telemetry"
)

// opLabel returns the journal label of one disk work kind.
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

// instrumentDisk installs the journal observer on one simulated disk and
// journals its initial state, so the exported timeline starts with a
// well-defined dwell on every track. No observer is installed without a
// journal: the disk's transition path stays branch-free.
func (s *sim) instrumentDisk(sd *simDisk, name string) {
	sd.name = name
	if s.jour == nil {
		return
	}
	s.jour.Append(telemetry.Event{
		Kind: telemetry.KindState, Subject: name, Detail: disk.Idle.String(),
	})
	sd.d.SetObserver(func(now simtime.Time, from, to disk.PowerState) {
		s.jour.Append(telemetry.Event{
			TimeS: float64(now), Kind: telemetry.KindState,
			Subject: name, Detail: to.String(),
		})
	})
}

// noteService journals one completed disk service with its queue wait.
// startAt/endAt bracket the service itself.
func (s *sim) noteService(d *simDisk, r *request, endAt simtime.Time) {
	if s.jour == nil {
		return
	}
	s.jour.Append(telemetry.Event{
		TimeS: float64(r.startAt), Kind: telemetry.KindService,
		Subject: d.name, Detail: opLabel(r.kind),
		DurS: float64(endAt - r.startAt), WaitS: float64(r.startAt - r.enqAt),
	})
}

// noteResponse journals one client-visible completion.
func (s *sim) noteResponse(r *request, rt float64) {
	if s.jour == nil {
		return
	}
	s.jour.Append(telemetry.Event{
		TimeS: float64(r.sentAt), Kind: telemetry.KindRequest,
		Subject: fmt.Sprintf("file:%d", r.fileID), Detail: opLabel(r.kind),
		DurS: rt,
	})
}
