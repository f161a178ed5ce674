package telemetry

import (
	"slices"
	"sync"
)

// Event kinds journaled by the simulator (and anything else that wants a
// structured timeline).
const (
	// KindState records a power-state transition: Subject is the disk
	// name, Detail the state being entered, TimeS the transition instant.
	KindState = "state"
	// KindService records one disk service: Subject is the disk name,
	// Detail the operation ("read", "write", ...), TimeS the service
	// start, DurS the service time, WaitS the queue wait before it.
	KindService = "service"
	// KindRequest records one client-visible request: Subject identifies
	// the file ("file:12"), Detail the operation, TimeS the client send
	// time, DurS the response time.
	KindRequest = "request"
)

// Event is one structured journal entry. Times are in seconds on the
// journal owner's clock (simtime for the simulator, so runs stay
// deterministic).
type Event struct {
	TimeS   float64 `json:"t"`
	Kind    string  `json:"kind"`
	Subject string  `json:"subject"`
	Detail  string  `json:"detail,omitempty"`
	DurS    float64 `json:"dur,omitempty"`
	WaitS   float64 `json:"wait,omitempty"`
}

// Journal is an append-only structured event log. A nil *Journal is a
// no-op, so callers instrument unconditionally. The mutex makes it safe
// for concurrent appenders; the single-threaded simulator pays one
// uncontended lock per event. It keeps every event: the deterministic
// simulator's oracles replay them all.
type Journal struct {
	mu     sync.Mutex
	events []Event
}

// Append records one event.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.events = append(j.events, e)
	j.mu.Unlock()
}

// Events returns a copy of the journal in append order.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return slices.Clone(j.events)
}

// Len returns the number of journaled events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// CountStates returns how many KindState events entered one of the given
// states (e.g. "spinning-up", "spinning-down" to recover the paper's
// transition count from a journal).
func (j *Journal) CountStates(states ...string) int {
	want := make(map[string]bool, len(states))
	for _, s := range states {
		want[s] = true
	}
	n := 0
	for _, e := range j.Events() {
		if e.Kind == KindState && want[e.Detail] {
			n++
		}
	}
	return n
}
