package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"eevfs/internal/simtest/leak"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("Counter did not return the existing handle")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	if r.Gauge("depth") != g {
		t.Fatal("Gauge did not return the existing handle")
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var j *Journal
	j.Append(Event{Kind: KindState})
	if j.Len() != 0 || j.Events() != nil {
		t.Fatal("nil journal must be a no-op")
	}
}

// TestHistogramBucketBoundaries pins the bucketing contract: a value
// exactly on a bound lands in that bound's bucket (v <= le), one ulp
// above it lands in the next, and values past the last bound overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.01, 0.1, 1})

	h.Observe(0.01)                    // == first bound
	h.Observe(math.Nextafter(0.01, 1)) // just above first bound
	h.Observe(0.05)                    // inside second bucket
	h.Observe(1)                       // == last bound
	h.Observe(1.5)                     // overflow
	h.Observe(0)                       // below everything
	h.Observe(math.Nextafter(0.1, 0))  // just below second bound
	h.Observe(math.Inf(1))             // +Inf -> overflow

	snap := h.Snapshot()
	wantBuckets := []int64{2, 3, 1}
	for i, want := range wantBuckets {
		if snap.Buckets[i].N != want {
			t.Errorf("bucket le=%g: n=%d, want %d", snap.Buckets[i].Le, snap.Buckets[i].N, want)
		}
	}
	if snap.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", snap.Overflow)
	}
	if snap.Count != 8 {
		t.Errorf("count = %d, want 8", snap.Count)
	}
}

func TestHistogramSumAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Observe(v)
	}
	if got := h.Sum(); math.Abs(got-8) > 1e-12 {
		t.Fatalf("sum = %g, want 8", got)
	}
	if got := h.Snapshot().Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean = %g, want 2", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in the first bucket
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("p50 = %g, want within (0, 1]", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from
// many goroutines; run under -race this doubles as the data-race gate
// (make verify runs the suite with -race).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h", []float64{0.5})
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) * 0.9)
				if i%100 == 0 {
					r.Snapshot() // concurrent readers must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c"] != workers*per {
		t.Fatalf("counter = %d, want %d", snap.Counters["c"], workers*per)
	}
	if snap.Gauges["g"] != workers*per {
		t.Fatalf("gauge = %g, want %d", snap.Gauges["g"], workers*per)
	}
	hs := snap.Histograms["h"]
	if hs.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*per)
	}
	if hs.Buckets[0].N+hs.Overflow != hs.Count {
		t.Fatalf("bucket sum %d+%d != count %d", hs.Buckets[0].N, hs.Overflow, hs.Count)
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b").Set(3.25)
	r.Histogram("c", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 7 || back.Gauges["b"] != 3.25 || back.Histograms["c"].Count != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestCounterNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
	}
	got := r.CounterNames()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestJournalAppendAndCount(t *testing.T) {
	j := &Journal{}
	j.Append(Event{TimeS: 0, Kind: KindState, Subject: "d0", Detail: "idle"})
	j.Append(Event{TimeS: 1, Kind: KindState, Subject: "d0", Detail: "spinning-down"})
	j.Append(Event{TimeS: 1.5, Kind: KindState, Subject: "d0", Detail: "standby"})
	j.Append(Event{TimeS: 3, Kind: KindState, Subject: "d0", Detail: "spinning-up"})
	j.Append(Event{TimeS: 4, Kind: KindRequest, Subject: "file:1", Detail: "read", DurS: 0.2})
	if j.Len() != 5 {
		t.Fatalf("len = %d, want 5", j.Len())
	}
	if got := j.CountStates("spinning-up", "spinning-down"); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
}

func TestAdminServesMetricsAndHealth(t *testing.T) {
	// The admin listener spawns accept/serve goroutines; Close must not
	// leave them behind to race the next test's listener.
	leak.Check(t)
	r := NewRegistry()
	r.Counter("proto.calls").Add(3)
	a, err := StartAdminConfig("127.0.0.1:0", AdminConfig{Registry: r, Health: func() any {
		return map[string]bool{"serving": true}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	resp, err := http.Get("http://" + a.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["proto.calls"] != 3 {
		t.Fatalf("metrics endpoint returned %+v", snap)
	}

	hr, err := http.Get("http://" + a.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]bool
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health["serving"] {
		t.Fatalf("healthz returned %v", health)
	}

	pr, err := http.Get("http://" + a.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", pr.StatusCode)
	}
}

func TestChromeTraceExport(t *testing.T) {
	j := &Journal{}
	j.Append(Event{TimeS: 0, Kind: KindState, Subject: "node0/data0", Detail: "idle"})
	j.Append(Event{TimeS: 2, Kind: KindState, Subject: "node0/data0", Detail: "spinning-down"})
	j.Append(Event{TimeS: 2.5, Kind: KindState, Subject: "node0/data0", Detail: "standby"})
	j.Append(Event{TimeS: 5, Kind: KindState, Subject: "node0/data0", Detail: "spinning-up"})
	j.Append(Event{TimeS: 6, Kind: KindState, Subject: "node0/data0", Detail: "idle"})
	j.Append(Event{TimeS: 6, Kind: KindService, Subject: "node0/data0", Detail: "read", DurS: 0.3, WaitS: 1.0})
	j.Append(Event{TimeS: 5.9, Kind: KindRequest, Subject: "file:3", Detail: "read", DurS: 0.5})

	var sb strings.Builder
	if err := WriteChromeTrace(&sb, j.Events(), 10); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TsUs  float64 `json:"ts"`
			DurUs float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	var spans, transitions, begins, ends int
	var idleDur float64
	for _, e := range tr.TraceEvents {
		switch e.Phase {
		case "X":
			spans++
			if e.Name == "spinning-up" || e.Name == "spinning-down" {
				transitions++
			}
			if e.Name == "idle" {
				idleDur += e.DurUs
			}
		case "b":
			begins++
		case "e":
			ends++
		}
	}
	// Dwells: idle[0,2) sdown[2,2.5) standby[2.5,5) sup[5,6) idle[6,10)
	// plus the service slice.
	if spans != 6 {
		t.Errorf("spans = %d, want 6", spans)
	}
	if transitions != 2 {
		t.Errorf("transition spans = %d, want 2", transitions)
	}
	if begins != 1 || ends != 1 {
		t.Errorf("request async events = %d/%d, want 1/1", begins, ends)
	}
	if want := 6e6; math.Abs(idleDur-want) > 1 {
		t.Errorf("idle dwell = %g us, want %g", idleDur, want)
	}
}
