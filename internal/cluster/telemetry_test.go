package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"eevfs/internal/telemetry"
	"eevfs/internal/workload"
)

// TestTelemetryMatchesResultAndExport is the simulator acceptance
// scenario: on a workload where disks actually sleep and wake, the event
// journal agrees exactly with Result, attaching it does not perturb the
// simulation, and the exported Chrome
// trace carries one transition slice per counted power-state transition.
func TestTelemetryMatchesResultAndExport(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 1000 // partial prefetch coverage: misses wake sleeping disks
	tr, err := workload.Synthetic(wcfg)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := Run(DefaultTestbed(), tr)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultTestbed()
	jour := &telemetry.Journal{}
	cfg.Journal = jour
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	// The journal must be a pure observer: bit-identical Result.
	if !reflect.DeepEqual(plain, res) {
		t.Fatal("attaching a journal changed the simulation result")
	}
	if res.Transitions == 0 {
		t.Fatal("workload produced no transitions; the test needs sleeping disks")
	}

	// Journal agrees with the paper's transition count.
	if got := jour.CountStates("spinning-up", "spinning-down"); got != res.Transitions {
		t.Errorf("journaled transitions = %d, Result.Transitions = %d", got, res.Transitions)
	}

	// The Chrome export carries exactly one slice per transition.
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, jour.Events(), res.MakespanSec); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			DurUs float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, e := range ct.TraceEvents {
		if e.Phase == "X" && (e.Name == "spinning-up" || e.Name == "spinning-down") {
			spans++
			if e.DurUs <= 0 {
				t.Errorf("transition slice %q has non-positive duration %g", e.Name, e.DurUs)
			}
		}
	}
	if spans != res.Transitions {
		t.Errorf("exported transition slices = %d, Result.Transitions = %d", spans, res.Transitions)
	}
}

// TestTelemetryDisabledJournalsNothing: the nil-sink configuration stays
// a true no-op (no observer installed, nothing journaled).
func TestTelemetryDisabledJournalsNothing(t *testing.T) {
	res, err := Run(tinyConfig(), singleReadTrace(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 {
		t.Fatalf("requests = %d", res.Requests)
	}
	var jour *telemetry.Journal
	if jour.Len() != 0 || jour.Events() != nil {
		t.Fatal("nil journal not a no-op")
	}
}
