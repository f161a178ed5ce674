package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eevfs/internal/experiments"
	"eevfs/internal/workload"
)

// writeTestTrace renders a small synthetic workload in the eevfs-trace/1
// text format and returns its path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	cfg := workload.DefaultSynthetic()
	cfg.NumRequests = 200
	return writeTrace(t, cfg)
}

// writeTrace renders cfg's trace in the eevfs-trace/1 text format and
// returns its path.
func writeTrace(t *testing.T, cfg workload.SyntheticConfig) string {
	t.Helper()
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunTraceFile renders the trace-file comparison both ways: each
// carries one PF row and one NPF row.
func TestRunTraceFile(t *testing.T) {
	path := writeTestTrace(t)
	for _, c := range []struct {
		markdown bool
		pf, npf  string
	}{
		{false, "\nPF ", "\nNPF "},
		{true, "\n| PF |", "\n| NPF |"},
	} {
		var buf bytes.Buffer
		if err := runTraceFile(&buf, path, c.markdown); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if strings.Count(out, c.pf) != 1 || strings.Count(out, c.npf) != 1 {
			t.Errorf("markdown=%v: want one PF row and one NPF row:\n%s", c.markdown, out)
		}
	}

	// The web-trace equivalent written to a file replays to fig6's rows.
	const requests = 150
	web := workload.DefaultWeb()
	web.NumRequests = requests
	var buf bytes.Buffer
	if err := runTraceFile(&buf, writeTrace(t, web), true); err != nil {
		t.Fatal(err)
	}
	fig6, err := experiments.Run("fig6", experiments.Options{Requests: requests})
	if err != nil || len(fig6.Rows) != 2 {
		t.Fatalf("fig6: %d rows, %v", len(fig6.Rows), err)
	}
	for _, row := range fig6.Rows {
		if md := "\n| " + strings.Join(row, " | ") + " |\n"; !strings.Contains(buf.String(), md) {
			t.Errorf("trace-file table lacks fig6's row %q:\n%s", md, buf.String())
		}
	}
}

// TestExperimentsAppendixCurrent holds EXPERIMENTS.md's appendix to what
// `eevfsbench -markdown` prints today.
func TestExperimentsAppendixCurrent(t *testing.T) {
	const marker = "<!-- appendix generated by: go run ./cmd/eevfsbench -markdown -->\n"
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, appendix, ok := bytes.Cut(doc, []byte(marker))
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no line %q", marker)
	}
	var want bytes.Buffer
	if err := writeTables(&want, experiments.IDs(), experiments.Options{}, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appendix, want.Bytes()) {
		t.Errorf("EXPERIMENTS.md's appendix differs from `eevfsbench -markdown`; regenerate it with `make experiments-md`")
	}
}

// TestExportChromeTrace drives the timeline export from the synthetic
// default and from a trace file.
func TestExportChromeTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "timeline.json")
	if err := exportChromeTrace(out, "", 200, 7); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("chrome trace export wrote an empty file")
	}
	// Same export fed from a trace file instead of the synthetic default.
	out2 := filepath.Join(t.TempDir(), "timeline2.json")
	if err := exportChromeTrace(out2, writeTestTrace(t), 0, 0); err != nil {
		t.Fatal(err)
	}
}
