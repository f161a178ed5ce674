package fs

import (
	"eevfs/internal/disk"
	"eevfs/internal/simtime"
	"eevfs/internal/telemetry"
)

// transitionObserver returns a disk.Observer that counts spin-ups and
// spin-downs and tracks how many disks are currently spinning. Returns
// nil (no observer installed) on a nil registry.
func transitionObserver(reg *telemetry.Registry, prefix string) disk.Observer {
	if reg == nil {
		return nil
	}
	spinUps := reg.Counter(prefix + ".disk.spinups")
	spinDowns := reg.Counter(prefix + ".disk.spindowns")
	standby := reg.Gauge(prefix + ".disks.standby")
	return func(now simtime.Time, from, to disk.PowerState) {
		switch to {
		case disk.SpinningUp:
			spinUps.Inc()
		case disk.SpinningDown:
			spinDowns.Inc()
		case disk.Standby:
			standby.Add(1)
		}
		if from == disk.Standby {
			standby.Add(-1)
		}
	}
}
