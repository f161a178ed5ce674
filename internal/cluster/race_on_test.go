//go:build race

package cluster

// raceEnabled reports whether this test binary was built with the race
// detector, which adds its own bytes to every run's allocations.
const raceEnabled = true
