//go:build !linux

package fs

import "time"

// alarm is a no-op off Linux: an injected wait is a plain time.Sleep, as
// late as the runtime's poller makes it.
type alarm struct{}

func newAlarm() alarm             { return alarm{} }
func (alarm) arm(d time.Duration) {}
func (alarm) close()              {}
