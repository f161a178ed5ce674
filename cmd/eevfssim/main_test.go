package main

import (
	"testing"
	"time"
)

// TestDriftBatterySmoke runs a handful of drift-battery iterations of the
// seed loop in process: the adaptive-arm generator, the full oracle
// catalogue, and the exit-code plumbing that CI's soak-drift job depends
// on.
func TestDriftBatterySmoke(t *testing.T) {
	if code := soak("drift", 1, 5, time.Time{}, 0, true, nil); code != 0 {
		t.Fatalf("drift battery failed with exit code %d", code)
	}
}
