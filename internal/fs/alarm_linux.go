//go:build linux

package fs

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm is a disk's wake-up call for the Go runtime's poller. An idle
// process waits for its next timer in epoll_wait, whose timeout is whole
// milliseconds, so a sleep of tens of microseconds ends about 1 ms late.
// The alarm is a timerfd the poller watches (os.NewFile registers a
// non-blocking descriptor with it): armed at a wait's deadline, it makes
// epoll_wait return then, and the runtime runs the sleep that is due.
// Nothing reads it. The zero alarm arms nothing.
type alarm struct {
	f  *os.File
	fd uintptr
}

// newAlarm returns a disarmed alarm, or the zero alarm if the kernel
// gives none: that disk's waits are then plain sleeps.
func newAlarm() alarm {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK|TFD_CLOEXEC
	if errno != 0 {
		return alarm{}
	}
	return alarm{f: os.NewFile(fd, "alarm"), fd: fd}
}

// arm sets the alarm to go off once, d from now. Should the kernel
// refuse, the wait it was armed for is a plain sleep: late, not wrong.
func (a alarm) arm(d time.Duration) {
	if a.f == nil {
		return
	}
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // it_interval, it_value
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

func (a alarm) close() {
	if a.f != nil {
		a.f.Close()
	}
}
