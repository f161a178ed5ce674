package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRunPrintsPinnedTraces pins the bytes tracegen prints: the paper's
// default synthetic trace without flags, and Fig. 6's web-trace
// equivalent with a working set.
func TestRunPrintsPinnedTraces(t *testing.T) {
	for _, c := range []struct {
		args   []string
		digest string
	}{
		{nil, "9fa059d73f9377cf38290dd0d13d53cad6edd7156c943cbb8ca9ce5b8221f18a"},
		{[]string{"-working-set", "60", "-zipf", "1.1"}, "fbf8bea41061dc59cc606d4e1c311b2205ba4bd0dff78d2082d99072a2062705"},
	} {
		var buf bytes.Buffer
		if err := run(c.args, &buf); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%q: output digest %s, want %s", c.args, got, c.digest)
		}
	}
}

// TestRunRejectsIgnoredFlags: a flag of the popularity model not chosen
// is an error, not a setting silently dropped.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-working-set", "60", "-mu", "10"},
		{"-zipf", "1.1"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}
