package main

import (
	"os"
	"path/filepath"
	"testing"

	"eevfs/internal/workload"
)

// writeTestTrace renders a small synthetic workload in the eevfs-trace/1
// text format and returns its path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	cfg := workload.DefaultSynthetic()
	cfg.NumRequests = 200
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

func TestRunTraceFile(t *testing.T) {
	if err := runTraceFile(writeTestTrace(t)); err != nil {
		t.Fatal(err)
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
