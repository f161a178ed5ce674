package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json to the program:
// the same workloads with the same reasons, the same metric names and
// units in the same order, and the contract's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, program has %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, declared []benchmarkMetric, specs []spec, bounded bool) {
		if len(declared) != len(specs) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(declared), len(specs))
		}
		for i, s := range specs {
			d := declared[i]
			if d.Name != s.name || d.Unit != s.unit {
				t.Errorf("%s %d: declared %s [%s], program has %s [%s]", kind, i, d.Name, d.Unit, s.name, s.unit)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) || bounded && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if runs := 4 + 22*len(ws); runs*30 > 3420 {
		t.Errorf("%d runs cannot fit the driver's 3420 s at 30 s each", runs)
	}
}

// smokeRun runs the whole benchmark — every workload, untraced and traced —
// at smoke size and returns each run's printed block.
func smokeRun(t *testing.T) map[string]string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--smoke", "--seconds", "0.5", "--dir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, &stderr, &stdout)
	}
	blocks := map[string]string{}
	for _, b := range strings.Split(stdout.String(), "== ")[1:] {
		name, mode := strings.Fields(b)[0], "untraced"
		if strings.Contains(b[:strings.Index(b, "\n")], "(traced") {
			mode = "traced"
		}
		blocks[name+" "+mode] = b
	}
	return blocks
}

// TestSmoke runs every workload with short segments and no timing
// assertions: every declared metric is printed exactly once with its
// unit, the JSON line has exactly the contract's keys, end-to-end metrics
// are never zero, and nothing failed verification.
func TestSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	blocks := smokeRun(t)
	for _, w := range f.Workloads {
		for mode, declared := range map[string][]benchmarkMetric{"untraced": f.EndToEnd, "traced": f.PerLayer} {
			block, ok := blocks[w.Name+" "+mode]
			if !ok {
				t.Errorf("%s %s: no output", w.Name, mode)
				continue
			}
			lines := strings.Split(strings.TrimSpace(block), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s %s: last line is not JSON: %v", w.Name, mode, err)
			}
			if len(res) != 4 {
				t.Errorf("%s %s: result has keys %v", w.Name, mode, res)
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.Name, mode, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(declared) {
				t.Errorf("%s %s: %d metrics in the result, %d declared", w.Name, mode, len(r.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s %s: metric %s [%s] missing from the result (got %+v)", w.Name, mode, d.Name, d.Unit, m)
				}
				if mode == "untraced" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g", w.Name, d.Name, m.Value)
				}
				printed := 0
				for _, l := range lines {
					if fields := strings.Fields(l); len(fields) >= 3 && fields[0] == d.Name && fields[2] == d.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s %s: metric %s printed %d times", w.Name, mode, d.Name, printed)
				}
			}
		}
	}
}

// TestTraceOut checks that the traced run writes a loadable Chrome trace
// whose spans nest: op above lookup and node.
func TestTraceOut(t *testing.T) {
	out := t.TempDir() + "/trace.json"
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "hot-read", "--trace", "1", "--trace-out", out,
		"--smoke", "--seconds", "0.5", "--dir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, &stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" {
			names[strings.Fields(e.Name)[0]]++
			if _, child := e.Args["parent_id"]; child == (strings.Fields(e.Name)[0] == spanOp) {
				t.Fatalf("span %q: parent_id present = %v", e.Name, child)
			}
		}
	}
	if names[spanOp] == 0 || names[spanLookup] == 0 || names[spanNode] == 0 {
		t.Errorf("spans by name: %v", names)
	}
	if !strings.Contains(stdout.String(), "self p50") {
		t.Error("no self-time table printed")
	}
}

// opStream renders the first n operations of every logical client of a
// workload: names, classes, payload stamps and arrival gaps.
func opStream(seed uint64, w liveWorkload, n int) string {
	var b strings.Builder
	const clients = 16
	for g := 0; g < clients; g++ {
		gen := newOpGen(seed, g, clients, w)
		for i := 0; i < n; i++ {
			gap := gen.arr.Next()
			o := gen.next()
			fmt.Fprintf(&b, "%d %s %s v%d +%d\n", g, kindNames[o.kind], o.name, o.version, gap)
		}
	}
	return b.String()
}

// TestInputsAreDeterministic proves that a seed fixes the generated
// operations and content byte for byte, and that another seed changes
// them.
func TestInputsAreDeterministic(t *testing.T) {
	for _, w := range []liveWorkload{hotRead, writeMix, coldPower} {
		a, b, other := opStream(1, w, 500), opStream(1, w, 500), opStream(2, w, 500)
		if a != b {
			t.Errorf("%s: two runs of seed 1 generated different operations", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 generated the same operations", w.name)
		}
	}
	one, again, two := make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)
	crc := newContentGen(1).fill(one, 7, 3)
	if newContentGen(1).fill(again, 7, 3) != crc || !bytes.Equal(one, again) {
		t.Error("content of (seed 1, file 7, version 3) changed between runs")
	}
	for _, c := range []uint32{newContentGen(2).fill(two, 7, 3), newContentGen(1).fill(two, 8, 3), newContentGen(1).fill(two, 7, 4)} {
		if c == crc {
			t.Error("content did not change with seed, file or version")
		}
	}
}

// TestMismatchFailsTheRun plants a wrong byte: verification must count
// it, and a run with a mismatch must report itself incorrect.
func TestMismatchFailsTheRun(t *testing.T) {
	r := &liveRun{w: liveWorkload{fileSize: 4096}, content: newContentGen(1), crcs: make([]uint32, 1)}
	data := make([]byte, 4096)
	r.crcs[0] = r.content.fill(data, 0, 0)
	if err := r.verify(0, data); err != nil {
		t.Fatalf("intact content rejected: %v", err)
	}
	data[100] ^= 1
	if err := r.verify(0, data); err != errMismatch || r.mism.Load() != 1 {
		t.Fatalf("flipped bit: err = %v, mismatches = %d", err, r.mism.Load())
	}
	if err := r.verify(0, data[:100]); err != errMismatch {
		t.Fatalf("short read: err = %v", err)
	}

	var out bytes.Buffer
	rep := &report{out: &out, vals: map[string]value{}, attempted: 10, mismatches: 1}
	rep.setv("setup_s", 1)
	if rep.emit([]spec{{"setup_s", "s"}}, true) || !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("a run with a mismatch reported itself correct: %s", &out)
	}
}

func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--dir", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit code %d", code)
	}
	if code := run([]string{"--no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit code %d", code)
	}
	// A set-up failure unwinds to run and is reported, not panicked.
	file := t.TempDir() + "/file"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"--workload", "hot-read", "--smoke", "--dir", file}, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
		t.Errorf("unusable --dir: exit code %d, stderr %q", code, &stderr)
	}
}

// TestNoisySegmentsAreRerun drives measure with a host that never looks
// quiet: the segment is attempted three times while budget lasts, the
// attempt with the fastest canary is kept, and the run is marked noisy.
func TestNoisySegmentsAreRerun(t *testing.T) {
	h := newHost()
	h.fastestMs = 1e-6 // no real canary can come within 15 % of this
	budget := time.Second
	attempts := 0
	h.measure(&budget, func() segResult {
		attempts++
		return segResult{dur: 100 * time.Millisecond}
	})
	if attempts != 3 || !h.noisy || budget != 800*time.Millisecond {
		t.Errorf("attempts = %d, noisy = %v, budget left = %v", attempts, h.noisy, budget)
	}
	attempts, budget = 0, 0
	h.measure(&budget, func() segResult { attempts++; return segResult{dur: time.Millisecond} })
	if attempts != 1 {
		t.Errorf("without budget: %d attempts", attempts)
	}

	quiet := newHost()
	quiet.measure(&budget, func() segResult { return segResult{} })
	if quiet.noisy && quiet.canaries.max() <= 1.15*quiet.fastestMs {
		t.Error("a quiet host was marked noisy")
	}
}

func TestStats(t *testing.T) {
	s := series{5, 1, 3, 2, 4}
	if s.median() != 3 || (series{1, 2, 3, 4}).median() != 2.5 || (series{}).median() != 0 {
		t.Error("median")
	}
	if lo, hi := s.minMax(); lo != 1 || hi != 5 {
		t.Error("minMax")
	}
	sorted := s.sorted()
	if percentile(sorted, 0.5) != 3 || percentile(sorted, 0.99) != 5 || percentile(sorted, 0) != 1 || percentile(nil, 0.5) != 0 {
		t.Error("percentile")
	}
}
