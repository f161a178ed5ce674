package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"eevfs/internal/simtest/leak"
)

// TestAdminConcurrentLoad hammers every admin endpoint from parallel
// goroutines while spans and metrics are still being produced, asserting
// each response stays well-formed and that Close leaves no goroutines
// behind. This is the regression net for data races between the span
// ring, the energy ledger, and the HTTP handlers (run under -race in CI).
func TestAdminConcurrentLoad(t *testing.T) {
	leak.Check(t)
	reg := NewRegistry()
	reg.Counter("proto.calls").Add(1)
	reg.Histogram("fs.op.read.seconds", nil).Observe(0.01)
	tracer := NewTracer(TracerConfig{Capacity: 256})
	energy := NewEnergyLedger(64)
	a, err := StartAdminConfig("127.0.0.1:0", AdminConfig{
		Registry: reg,
		Health:   func() any { return map[string]bool{"serving": true} },
		Tracer:   tracer,
		Energy:   energy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	base := "http://" + a.Addr()
	paths := []string{"/metrics", "/metrics.prom", "/traces", "/traces?format=chrome", "/healthz"}
	const (
		writers = 4
		readers = 8
		rounds  = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers*len(paths))

	// Writers keep the tracer/ledger/registry hot while readers scrape.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sp := tracer.StartRoot("client", "client.read")
				ch := sp.Child("client.rt.server")
				ch.Annotate("peer", "127.0.0.1:1")
				ch.Finish()
				sp.AddEnergy(0.5)
				sp.Finish()
				energy.Attribute(uint64(w*rounds+i+1), fmt.Sprintf("file:%d", i), "data.Active", 1.5)
				reg.Counter("proto.calls").Inc()
				reg.Histogram("fs.op.read.seconds", nil).Observe(0.002)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					resp, err := http.Get(base + p)
					if err != nil {
						errs <- fmt.Errorf("%s: %v", p, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s: status %d err %v", p, resp.StatusCode, err)
						return
					}
					if err := checkAdminBody(p, body); err != nil {
						errs <- fmt.Errorf("%s: %v", p, err)
						return
					}
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkAdminBody asserts one endpoint response is well-formed.
func checkAdminBody(path string, body []byte) error {
	switch {
	case path == "/metrics":
		var snap Snapshot
		return json.Unmarshal(body, &snap)
	case path == "/metrics.prom":
		if !strings.Contains(string(body), "# TYPE proto_calls counter") {
			return fmt.Errorf("missing counter TYPE line")
		}
		return nil
	case path == "/traces":
		var p tracesPayload
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		for id, spans := range p.Traces {
			if len(spans) == 0 {
				return fmt.Errorf("trace %s has no spans", id)
			}
		}
		return nil
	case strings.HasPrefix(path, "/traces?format=chrome"):
		var tr struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		return json.Unmarshal(body, &tr)
	case path == "/healthz":
		var h map[string]bool
		if err := json.Unmarshal(body, &h); err != nil {
			return err
		}
		if !h["serving"] {
			return fmt.Errorf("not serving: %v", h)
		}
		return nil
	}
	return nil
}

func TestTracesEndpointFilterAndEnergy(t *testing.T) {
	leak.Check(t)
	tracer := NewTracer(TracerConfig{})
	energy := NewEnergyLedger(0)
	a, err := StartAdminConfig("127.0.0.1:0", AdminConfig{Tracer: tracer, Energy: energy})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	sp := tracer.StartRoot("client", "client.read")
	want := sp.TraceID()
	sp.Finish()
	other := tracer.StartRoot("client", "client.write")
	other.Finish()
	energy.Attribute(want, "file:1", "data.Active", 7)

	resp, err := http.Get(fmt.Sprintf("http://%s/traces?trace=%x", a.Addr(), want))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p tracesPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if len(p.Traces) != 1 {
		t.Fatalf("filter returned %d traces, want 1", len(p.Traces))
	}
	spans, ok := p.Traces[fmt.Sprintf("%x", want)]
	if !ok || len(spans) != 1 || spans[0].Name != "client.read" {
		t.Fatalf("filtered payload = %+v", p.Traces)
	}
	if p.Energy.PerTrace[fmt.Sprintf("%016x", want)] != 7 {
		t.Fatalf("energy snapshot = %+v", p.Energy)
	}
}
