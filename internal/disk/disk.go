// Package disk models hard-drive performance and power for the EEVFS
// simulator and the real file-system prototype.
//
// The paper's testbed measured real ATA/133 drives that were physically
// transitioned between power states. This package is the substitution for
// that hardware: a service-time model (seek + rotational latency +
// transfer) and a power-state machine (active / idle / standby plus spin-up
// and spin-down transitions) whose dwell times are integrated into Joules.
package disk

import (
	"fmt"
	"math"

	"eevfs/internal/simtime"
)

// PowerState enumerates the disk power states used by EEVFS (Section III-C
// of the paper uses active, idle, and standby; the transition states carry
// the spin-up/spin-down energy and latency).
type PowerState int

const (
	// Active: platters spinning, head servicing a request.
	Active PowerState = iota
	// Idle: platters spinning, no request in service.
	Idle
	// Standby: platters stopped; a request must first spin the disk up.
	Standby
	// SpinningUp: transitioning standby -> active.
	SpinningUp
	// SpinningDown: transitioning idle -> standby.
	SpinningDown
	numStates
)

// String implements fmt.Stringer.
func (s PowerState) String() string {
	switch s {
	case Active:
		return "active"
	case Idle:
		return "idle"
	case Standby:
		return "standby"
	case SpinningUp:
		return "spinning-up"
	case SpinningDown:
		return "spinning-down"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// Model holds the performance and power parameters of one drive type.
// Its methods read it through a pointer: they run on every simulated
// event, where a copy of the struct would cost more than their arithmetic.
type Model struct {
	Name string

	// Performance.
	BandwidthMBps float64 // sustained transfer rate, MB/s (decimal MB)
	AvgSeekSec    float64 // average seek time, seconds
	AvgRotateSec  float64 // average rotational latency, seconds
	CapacityGB    float64

	// Power, in Watts.
	PActive  float64 // servicing a request
	PIdle    float64 // spinning, no request
	PStandby float64 // platters stopped

	// Transitions.
	SpinUpSec   float64 // standby -> active latency
	SpinUpJ     float64 // total energy of one spin-up
	SpinDownSec float64 // idle -> standby latency
	SpinDownJ   float64 // total energy of one spin-down
}

// Validate reports the first problem with the parameter set, or nil.
func (m *Model) Validate() error {
	switch {
	case m.BandwidthMBps <= 0:
		return fmt.Errorf("disk %q: bandwidth must be positive", m.Name)
	case m.AvgSeekSec < 0 || m.AvgRotateSec < 0:
		return fmt.Errorf("disk %q: negative latency", m.Name)
	case m.PActive < m.PIdle:
		return fmt.Errorf("disk %q: active power below idle power", m.Name)
	case m.PIdle <= m.PStandby:
		return fmt.Errorf("disk %q: idle power must exceed standby power", m.Name)
	case m.PStandby < 0:
		return fmt.Errorf("disk %q: negative standby power", m.Name)
	case m.SpinUpSec <= 0 || m.SpinDownSec <= 0:
		return fmt.Errorf("disk %q: transition latencies must be positive", m.Name)
	case m.SpinUpJ <= 0 || m.SpinDownJ <= 0:
		return fmt.Errorf("disk %q: transition energies must be positive", m.Name)
	}
	return nil
}

// TransferTime returns the time to move size bytes at the sustained rate.
func (m *Model) TransferTime(size int64) float64 {
	if size <= 0 {
		return 0
	}
	return float64(size) / (m.BandwidthMBps * 1e6)
}

// ServiceTime returns seek + rotational latency + transfer time for one
// request of size bytes. Sequential log appends on buffer disks should use
// SequentialTime instead.
func (m *Model) ServiceTime(size int64) float64 {
	return m.AvgSeekSec + m.AvgRotateSec + m.TransferTime(size)
}

// SequentialTime returns the service time of a sequential (log) access:
// no seek, half the usual rotational latency. Buffer disks are log disks
// precisely so that writes take this path (Section I).
func (m *Model) SequentialTime(size int64) float64 {
	return m.AvgRotateSec/2 + m.TransferTime(size)
}

// BreakEvenSec returns the minimum idle-gap length for which spinning down
// saves energy versus idling through the gap:
//
//	PIdle*T  >=  SpinDownJ + SpinUpJ + PStandby*(T - SpinDownSec - SpinUpSec)
//
// solved for T. Gaps shorter than this waste energy if the disk sleeps.
func (m *Model) BreakEvenSec() float64 {
	num := m.SpinDownJ + m.SpinUpJ - m.PStandby*(m.SpinDownSec+m.SpinUpSec)
	den := m.PIdle - m.PStandby
	be := num / den
	// The disk cannot complete a sleep/wake cycle faster than the two
	// transitions themselves.
	if min := m.SpinDownSec + m.SpinUpSec; be < min {
		return min
	}
	return be
}

// SleepSavedJ returns the Joules saved by sleeping through an idle gap of
// gap seconds rather than idling through it: the two sides of
// BreakEvenSec's inequality, spin-down at the gap's start and spin-up
// ending at its end. It is negative for gaps shorter than the break-even.
func (m *Model) SleepSavedJ(gap float64) float64 {
	return m.PIdle*gap - (m.SpinDownJ + m.SpinUpJ + m.PStandby*(gap-m.SpinDownSec-m.SpinUpSec))
}

// StatePower returns the drawn power in the given state, with transition
// states drawing their energy spread uniformly over their latency.
func (m *Model) StatePower(s PowerState) float64 {
	switch s {
	case Active:
		return m.PActive
	case Idle:
		return m.PIdle
	case Standby:
		return m.PStandby
	case SpinningUp:
		return m.SpinUpJ / m.SpinUpSec
	case SpinningDown:
		return m.SpinDownJ / m.SpinDownSec
	default:
		return 0
	}
}

// Stats is a snapshot of one disk's accumulated accounting.
type Stats struct {
	Name        string
	EnergyJ     float64
	SpinUps     int
	SpinDowns   int
	Requests    int64
	BytesMoved  int64
	TimeInState [int(numStates)]float64 // seconds per PowerState
}

// Transitions returns the paper's "number of power state transitions"
// metric: every spin-down and every spin-up counts as one transition.
func (s Stats) Transitions() int { return s.SpinUps + s.SpinDowns }

// Disk is the power-state machine of a single drive. It is a passive
// accounting object: the simulator (or the real storage node) drives state
// changes and the disk integrates energy over dwell times.
//
// Disk is not safe for concurrent use; the cluster simulator is
// single-threaded per run, and the real storage node guards each disk with
// its own lock.
type Disk struct {
	model      Model
	stats      Stats
	state      PowerState
	stateSince simtime.Time
	obs        Observer
}

// Observer receives every power-state transition as it happens, with the
// state being left and the state being entered. It runs synchronously
// inside the transition, so implementations must be cheap and must not
// call back into the Disk. Telemetry (the simulator's event journal, the
// storage node's transition counters) hangs off this hook.
type Observer func(now simtime.Time, from, to PowerState)

// SetObserver installs the transition observer (nil removes it).
func (d *Disk) SetObserver(fn Observer) { d.obs = fn }

// New creates a disk in the Idle state at time 0. It panics if the model
// is invalid (construction-time programming error, not a runtime input).
func New(name string, m Model) *Disk {
	if err := m.Validate(); err != nil {
		panic("disk: " + err.Error())
	}
	d := &Disk{model: m, state: Idle}
	d.stats.Name = name
	return d
}

// Model returns the disk's parameter set, read in place: callers must
// not modify it.
func (d *Disk) Model() *Model { return &d.model }

// State returns the current power state.
func (d *Disk) State() PowerState { return d.state }

// StateSince returns when the disk entered its current state.
func (d *Disk) StateSince() simtime.Time { return d.stateSince }

// Stats returns a copy of the accumulated counters. Call Advance first if
// you need energy integrated up to a specific instant.
func (d *Disk) Stats() Stats { return d.stats }

// Advance integrates energy from the last accounting point to now without
// changing state. now must not precede the last accounting point.
func (d *Disk) Advance(now simtime.Time) {
	if now < d.stateSince {
		panic(fmt.Sprintf("disk %s: Advance to %v before state start %v",
			d.stats.Name, now, d.stateSince))
	}
	dt := float64(now - d.stateSince)
	d.stats.EnergyJ += dt * d.model.StatePower(d.state)
	d.stats.TimeInState[d.state] += dt
	d.stateSince = now
}

// transition integrates up to now and switches state.
func (d *Disk) transition(now simtime.Time, to PowerState) {
	d.Advance(now)
	from := d.state
	d.state = to
	if d.obs != nil && from != to {
		d.obs(now, from, to)
	}
}

// BeginService marks the start of servicing a request at now. The disk
// must be spinning (Idle or Active); waking a standby disk is a separate,
// slower path the caller must model via BeginSpinUp/CompleteSpinUp.
func (d *Disk) BeginService(now simtime.Time) {
	switch d.state {
	case Idle, Active:
		d.transition(now, Active)
	default:
		panic(fmt.Sprintf("disk %s: BeginService in state %v", d.stats.Name, d.state))
	}
}

// EndService marks the completion of a request; the disk returns to Idle.
func (d *Disk) EndService(now simtime.Time, bytes int64) {
	if d.state != Active {
		panic(fmt.Sprintf("disk %s: EndService in state %v", d.stats.Name, d.state))
	}
	d.transition(now, Idle)
	d.stats.Requests++
	d.stats.BytesMoved += bytes
}

// BeginSpinDown starts an idle -> standby transition at now. The caller
// must schedule CompleteSpinDown at now + SpinDownSec.
func (d *Disk) BeginSpinDown(now simtime.Time) {
	if d.state != Idle {
		panic(fmt.Sprintf("disk %s: BeginSpinDown in state %v", d.stats.Name, d.state))
	}
	d.transition(now, SpinningDown)
	d.stats.SpinDowns++
}

// CompleteSpinDown finishes the transition into Standby.
func (d *Disk) CompleteSpinDown(now simtime.Time) {
	if d.state != SpinningDown {
		panic(fmt.Sprintf("disk %s: CompleteSpinDown in state %v", d.stats.Name, d.state))
	}
	d.transition(now, Standby)
}

// BeginSpinUp starts a standby -> active transition at now. A disk that is
// mid spin-down cannot abort (real drives can't either); the caller must
// wait for CompleteSpinDown before waking it.
func (d *Disk) BeginSpinUp(now simtime.Time) {
	if d.state != Standby {
		panic(fmt.Sprintf("disk %s: BeginSpinUp in state %v", d.stats.Name, d.state))
	}
	d.transition(now, SpinningUp)
	d.stats.SpinUps++
}

// CompleteSpinUp finishes the transition; the disk lands in Idle, ready
// for BeginService.
func (d *Disk) CompleteSpinUp(now simtime.Time) {
	if d.state != SpinningUp {
		panic(fmt.Sprintf("disk %s: CompleteSpinUp in state %v", d.stats.Name, d.state))
	}
	d.transition(now, Idle)
}

// RatedStartStopCycles is a typical rated start/stop cycle count for a
// desktop ATA drive of the paper's era (datasheets quote 40k-50k). The
// paper's reliability concern — "this small amount of energy savings may
// not be worth the stress put on the hard drives from the large amount of
// state changes" (Section VI-B) — is quantified against this rating.
const RatedStartStopCycles = 50_000

// YearsToWearOut extrapolates the observed sleep-cycle rate to the time
// it would take to exhaust rated start/stop cycles. observedSec is the
// span the Stats cover. It returns +Inf when no cycles were observed and
// 0 when observedSec is not positive (no meaningful rate).
func (s Stats) YearsToWearOut(observedSec float64, rated int) float64 {
	if observedSec <= 0 {
		return 0
	}
	if s.SpinDowns == 0 {
		return math.Inf(1)
	}
	cyclesPerSec := float64(s.SpinDowns) / observedSec
	secondsToRated := float64(rated) / cyclesPerSec
	const yearSec = 365.25 * 24 * 3600
	return secondsToRated / yearSec
}
