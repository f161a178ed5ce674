package cluster

import (
	"testing"

	"eevfs/internal/telemetry"
	"eevfs/internal/workload"
)

func benchRun(b *testing.B, cfg Config) {
	b.Helper()
	tr, err := workload.Synthetic(workload.DefaultSynthetic())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTelemetryOff is the disabled-mode baseline: no journal, so
// no observer is installed.
func BenchmarkRunTelemetryOff(b *testing.B) {
	benchRun(b, DefaultTestbed())
}

// BenchmarkRunTelemetryOn measures the cost of the structured event
// journal.
func BenchmarkRunTelemetryOn(b *testing.B) {
	cfg := DefaultTestbed()
	cfg.Journal = &telemetry.Journal{}
	benchRun(b, cfg)
}
