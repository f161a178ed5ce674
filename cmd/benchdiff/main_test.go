package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/parent.txt and testdata/change.txt are the saved outputs of one
// real `make bench-pairs BASE=HEAD N=3 W='hot-read sim-paper'`: the same
// code on both sides, three runs of each workload per side. Every case
// below edits result lines of those recordings and nothing else.

// edit is applied to the result line of run i (from 0) of a workload.
type edit func(workload string, i int, res map[string]any)

// rewrite returns raw with every run's result line passed through edits;
// the headers and the human-readable tables stay as recorded.
func rewrite(t *testing.T, raw []byte, edits ...edit) []byte {
	t.Helper()
	var out bytes.Buffer
	workload, seen := "", map[string]int{}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "== ") {
			workload = strings.Fields(line)[1]
		}
		if strings.HasPrefix(line, "{") {
			var res map[string]any
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			for _, e := range edits {
				e(workload, seen[workload], res)
			}
			seen[workload]++
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			line = string(b) + "\n"
		}
		out.WriteString(line)
	}
	return out.Bytes()
}

// scale multiplies one metric of one workload, run i by factors[i].
func scale(workload, metric string, factors ...float64) edit {
	return func(w string, i int, res map[string]any) {
		if w == workload {
			m := res["metrics"].(map[string]any)[metric].(map[string]any)
			m["value"] = m["value"].(float64) * factors[i]
		}
	}
}

// set overwrites one top-level field of one run's result line.
func set(workload string, run int, field string, v any) edit {
	return func(w string, i int, res map[string]any) {
		if w == workload && i == run {
			res[field] = v
		}
	}
}

// dropRuns removes every run of a workload, header to result line.
func dropRuns(raw []byte, workload string) []byte {
	var out bytes.Buffer
	skip := false
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "== ") {
			skip = strings.Fields(line)[1] == workload
		}
		if !skip {
			out.WriteString(line)
		}
	}
	return out.Bytes()
}

func TestGate(t *testing.T) {
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	parent, change := read("parent.txt"), read("change.txt")
	noisy := []float64{0.5, 1, 1.5}

	cases := []struct {
		name           string
		parent, change []byte
		code           int
		stdout, stderr []string // substrings that must appear
		never          []string // substrings that must not, in either stream
	}{
		{name: "identical sides are ok on every row",
			parent: parent, change: parent, code: 0,
			stdout: []string{"hot-read      op_p50_ms", "sim-paper     joules_per_op", "sim-paper     failed/tried"},
			never:  []string{"worse", "unresolved", "FAIL"}},
		{name: "the recorded pair, same code on both sides, passes",
			parent: parent, change: change, code: 0,
			never: []string{"worse", "FAIL"}},
		{name: "a lower-is-better metric past its bound fails, by name",
			parent: parent, change: rewrite(t, parent, scale("hot-read", "op_p50_ms", 1.3, 1.3, 1.3)), code: 1,
			stderr: []string{"FAIL: hot-read op_p50_ms is worse"},
			never:  []string{"sim-paper op_p50_ms is worse", "ops_per_s is worse"}},
		{name: "a higher-is-better metric past its bound fails, by name",
			parent: parent, change: rewrite(t, parent, scale("sim-paper", "ops_per_s", 0.7, 0.7, 0.7)), code: 1,
			stderr: []string{"FAIL: sim-paper ops_per_s is worse"},
			never:  []string{"hot-read ops_per_s is worse", "op_p50_ms is worse"}},
		{name: "joules are held to their own, tighter bound",
			parent: parent, change: rewrite(t, parent, scale("sim-paper", "joules_per_op", 1.2, 1.2, 1.2)), code: 1,
			stderr: []string{"FAIL: sim-paper joules_per_op is worse"}},
		{name: "a move inside the bound, or in the good direction, passes",
			parent: parent, change: rewrite(t, parent,
				scale("hot-read", "op_p50_ms", 1.2, 1.2, 1.2), scale("hot-read", "ops_per_s", 3, 3, 3),
				scale("sim-paper", "cpu_us_per_op", 0.3, 0.3, 0.3)), code: 0,
			never: []string{"worse", "unresolved"}},
		{name: "overlapping noisy runs are unresolved, not ok and not a failure",
			parent: rewrite(t, parent, scale("hot-read", "ops_per_s", noisy...)),
			change: rewrite(t, parent, scale("hot-read", "ops_per_s", noisy...)), code: 0,
			stdout: []string{"unresolved"}, never: []string{"worse"}},
		{name: "noisy runs that all beat every parent run are ok",
			parent: rewrite(t, parent, scale("hot-read", "op_p50_ms", 4, 6, 8)),
			change: rewrite(t, parent, scale("hot-read", "op_p50_ms", noisy...)), code: 0,
			never: []string{"worse", "unresolved"}},
		{name: "a wrong output fails",
			parent: parent, change: rewrite(t, parent, set("hot-read", 1, "correct", false)), code: 1,
			stderr: []string{"hot-read: run 2 of the change reports correct:false"}},
		{name: "a risen failed share fails",
			parent: parent, change: rewrite(t, parent, set("sim-paper", 0, "failed", 7)), code: 1,
			stdout: []string{"worse"}, stderr: []string{"sim-paper: failed share rose"}},
		{name: "a workload missing on one side is an error",
			parent: parent, change: dropRuns(parent, "sim-paper"), code: 2,
			stderr: []string{"workload sim-paper: 3 runs of the parent, 0 of the change"}},
		{name: "a workload missing on the other side is an error",
			parent: dropRuns(parent, "hot-read"), change: parent, code: 2,
			stderr: []string{"workload hot-read: 0 runs of the parent, 3 of the change"}},
		{name: "a run missing a metric is an error",
			parent: parent, change: rewrite(t, parent, func(w string, i int, res map[string]any) {
				if w == "hot-read" && i == 2 {
					delete(res["metrics"].(map[string]any), "joules_per_op")
				}
			}), code: 2,
			stderr: []string{"workload hot-read, change: run 3 lacks joules_per_op"}},
		{name: "a run that died before its result line is an error",
			parent: parent, change: append(append([]byte(nil), parent...), "== hot-read (untraced)\nbench: set-up failed\n"...), code: 2,
			stderr: []string{"run of hot-read ends without a result line"}},
		{name: "a workload the benchmark file does not name is an error",
			parent: bytes.ReplaceAll(parent, []byte("== sim-paper"), []byte("== sim-papr")),
			change: bytes.ReplaceAll(parent, []byte("== sim-paper"), []byte("== sim-papr")), code: 2,
			stderr: []string{"workload sim-papr is not in the benchmark file"}},
		{name: "nothing to compare is an error",
			parent: nil, change: nil, code: 2, stderr: []string{"no runs to compare"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pPath, cPath := filepath.Join(dir, "parent.txt"), filepath.Join(dir, "change.txt")
			if err := os.WriteFile(pPath, tc.parent, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cPath, tc.change, 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{filepath.Join("..", "..", "BENCHMARK.json"), pPath, cPath}, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit code %d, want %d", code, tc.code)
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q", want)
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q", want)
				}
			}
			for _, bad := range tc.never {
				if strings.Contains(stdout.String()+stderr.String(), bad) {
					t.Errorf("output holds %q", bad)
				}
			}
			if t.Failed() {
				t.Logf("stdout:\n%s\nstderr:\n%s", &stdout, &stderr)
			}
		})
	}
}

func TestUsageAndUnreadableInputs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"only-one-argument"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage:") {
		t.Errorf("one argument: exit code %d, stderr %q", code, &stderr)
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	if code := run([]string{bench, filepath.Join("testdata", "parent.txt"), "no-such-file"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit code %d, want 2", code)
	}
	if code := run([]string{filepath.Join("testdata", "parent.txt"), bench, bench}, &stdout, &stderr); code != 2 {
		t.Errorf("a benchmark file that is not JSON: exit code %d, want 2", code)
	}
}
