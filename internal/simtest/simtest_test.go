package simtest

import (
	"strings"
	"testing"

	"eevfs/internal/cluster"
)

// corpusSize is the fixed-seed corpus checked on every `go test -short`
// run: enough scenarios to exercise every generator branch, small enough
// to stay inside the tier-1 budget.
const corpusSize = 60

const corpusBase = uint64(1000)

// TestCorpus runs the fixed seed corpus through every oracle. This is
// the deterministic replay of what the soak CLI explores with random
// seeds, so any oracle unsoundness (a check that flakes on legal
// behavior) shows up here first.
func TestCorpus(t *testing.T) {
	dominance := 0
	maid, writes := 0, 0
	adaptive, drifting, flash, diurnal := 0, 0, 0, 0
	for i := 0; i < corpusSize; i++ {
		seed := corpusBase + uint64(i)
		s := Generate(seed)
		if pfRegime(s) {
			dominance++
		}
		if s.Policy == cluster.MAID {
			maid++
		}
		if s.WritePct > 0 {
			writes++
		}
		if s.Policy == cluster.Adaptive {
			adaptive++
		}
		if s.DriftPhases > 1 {
			drifting++
		}
		if s.FlashPct > 0 {
			flash++
		}
		if s.DiurnalPct > 0 {
			diurnal++
		}
		if f := Check(s); f != nil {
			t.Errorf("seed %d: oracle %s: %s\n  repro: %s", seed, f.Oracle, f.Msg, ReproCommand(s))
		}
	}
	// The corpus must actually cover the interesting generator branches;
	// otherwise a pass is vacuous.
	if dominance == 0 {
		t.Error("corpus never hit the PF-dominates-NPF regime; the dominance oracle was vacuous")
	}
	if maid == 0 {
		t.Error("corpus never generated a MAID scenario")
	}
	if writes == 0 {
		t.Error("corpus never generated writes")
	}
	if adaptive == 0 {
		t.Error("corpus never generated an adaptive-arm scenario; its oracles were vacuous")
	}
	if drifting == 0 {
		t.Error("corpus never generated popularity drift")
	}
	if flash == 0 {
		t.Error("corpus never generated a flash crowd")
	}
	if diurnal == 0 {
		t.Error("corpus never generated diurnal load")
	}
}

// TestGenerateDrift checks the steered drift generator behind the
// `eevfssim -drift` battery: deterministic, always the adaptive arm on a
// drift workload, and valid across a wide seed sweep.
func TestGenerateDrift(t *testing.T) {
	for i := 0; i < 200; i++ {
		seed := uint64(5_000_000 + i*31)
		s := GenerateDrift(seed)
		if b := GenerateDrift(seed); s != b {
			t.Fatalf("seed %d: GenerateDrift is not deterministic", seed)
		}
		if s.Policy != cluster.Adaptive || !s.UsesDrift() {
			t.Fatalf("seed %d: drift generator produced a non-adaptive scenario: %+v", seed, s)
		}
		if s.Concentrate || s.WriteBuffer || s.WritePct != 0 {
			t.Fatalf("seed %d: adaptive arm is not standalone: %+v", seed, s)
		}
		if err := s.Valid(); err != nil {
			t.Fatalf("seed %d generates an invalid drift scenario: %v\n%+v", seed, err, s)
		}
	}
}

// TestGenerateValid checks that every generated scenario expands to a
// config the cluster simulator accepts, over a wider sweep than the
// corpus.
func TestGenerateValid(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		s := Generate(uint64(7_000_000 + i))
		if err := s.Valid(); err != nil {
			t.Fatalf("seed %d generates an invalid scenario: %v\n%+v", s.Seed, err, s)
		}
	}
}

// TestGenerateDeterministic: the same seed must yield the same scenario.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		seed := uint64(42 + i*17)
		if a, b := Generate(seed), Generate(seed); a != b {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestInjectedStandbyReadCaughtAndShrunk is the acceptance path for the
// whole harness: an intentionally broken invariant (a disk that services
// a read while in standby) must be (1) caught by the power-legality
// oracle, (2) shrunk to a <=10-request reproducer, and (3) replayable
// from the printed repro string, deterministically hitting the same
// oracle.
func TestInjectedStandbyReadCaughtAndShrunk(t *testing.T) {
	s := Generate(corpusBase)
	s.Inject = InjectReadStandby

	f := Check(s)
	if f == nil {
		t.Fatal("injected standby read was not caught by any oracle")
	}
	if f.Oracle != "power-legal" {
		t.Fatalf("injected standby read attributed to oracle %q, want power-legal (%s)", f.Oracle, f.Msg)
	}
	if !strings.Contains(f.Msg, "standby") {
		t.Errorf("failure message does not name the illegal state: %s", f.Msg)
	}

	min := Shrink(s, f, Check)
	if min.Failure.Oracle != "power-legal" {
		t.Fatalf("shrinker drifted to oracle %q", min.Failure.Oracle)
	}
	if min.Scenario.Requests > 10 {
		t.Errorf("shrunk reproducer still has %d requests, want <= 10\n%+v", min.Scenario.Requests, min.Scenario)
	}
	if min.Scenario.Inject != InjectReadStandby {
		t.Error("shrinker dropped the injection, which is what makes the scenario fail")
	}

	// The printed command's -repro payload must replay to the same
	// failure.
	cmd := ReproCommand(min.Scenario)
	if !strings.HasPrefix(cmd, "eevfssim -seed=") || !strings.Contains(cmd, "-repro='v1,") {
		t.Fatalf("unexpected repro command shape: %s", cmd)
	}
	decoded, err := DecodeScenario(min.Scenario.Encode())
	if err != nil {
		t.Fatalf("re-decoding the repro string: %v", err)
	}
	if decoded != min.Scenario {
		t.Fatalf("repro string does not round-trip:\nencoded %+v\ndecoded %+v", min.Scenario, decoded)
	}
	for run := 0; run < 2; run++ {
		rf := Check(decoded)
		if rf == nil || rf.Oracle != "power-legal" {
			t.Fatalf("replay %d of the minimal repro did not reproduce power-legal: %+v", run, rf)
		}
	}
}

// TestInjectedBadEstimatorCaughtAndShrunk is the acceptance path for the
// adaptive oracles: an intentionally broken inter-arrival estimator (one
// that always claims the next gap is profitably long and bypasses the
// transition budget) must thrash the disks hard enough for the
// transition-budget oracle to fire, and the failure must shrink to a
// small reproducer that replays from the printed one-line command.
func TestInjectedBadEstimatorCaughtAndShrunk(t *testing.T) {
	// Steer the shape so per-disk gaps land just above the spin-down
	// threshold (~3 s): 4 data disks sharing 1 req/s gives ~4 s gaps,
	// which a sane policy would ride out and a broken one sleeps into.
	s := GenerateDrift(corpusBase)
	s.NodeCount = 2
	s.Type2Count = 0
	s.DataDisks = 2
	s.BufferDisks = 1
	s.IdleThresholdSec = 1
	s.Files = 200
	s.Requests = 160
	s.MU = 50
	s.InterArrivalMS = 1000
	s.FlashPct = 0
	s.DiurnalPct = 0
	s.Inject = InjectBadEstimator
	if err := s.Valid(); err != nil {
		t.Fatalf("steered scenario invalid: %v", err)
	}

	f := Check(s)
	if f == nil {
		t.Fatal("injected bad estimator was not caught by any oracle")
	}
	if f.Oracle != "adaptive-transition-budget" {
		t.Fatalf("bad estimator attributed to oracle %q, want adaptive-transition-budget (%s)", f.Oracle, f.Msg)
	}

	min := Shrink(s, f, Check)
	if min.Failure.Oracle != "adaptive-transition-budget" {
		t.Fatalf("shrinker drifted to oracle %q", min.Failure.Oracle)
	}
	if min.Scenario.Inject != InjectBadEstimator {
		t.Error("shrinker dropped the injection, which is what makes the scenario fail")
	}
	if min.Scenario.Policy != cluster.Adaptive {
		t.Error("shrinker dropped the adaptive arm, which is what the oracle checks")
	}
	// Six spin-downs inside one budget window need ~100 one-second
	// arrivals, so the floor is far above the standby test's 10 — but
	// the shrinker must still make progress.
	if min.Scenario.Requests >= s.Requests {
		t.Errorf("shrinker made no progress on requests: %d of %d", min.Scenario.Requests, s.Requests)
	}

	cmd := ReproCommand(min.Scenario)
	if !strings.HasPrefix(cmd, "eevfssim -seed=") || !strings.Contains(cmd, "-repro='v1,") {
		t.Fatalf("unexpected repro command shape: %s", cmd)
	}
	decoded, err := DecodeScenario(min.Scenario.Encode())
	if err != nil {
		t.Fatalf("re-decoding the repro string: %v", err)
	}
	if decoded != min.Scenario {
		t.Fatalf("repro string does not round-trip:\nencoded %+v\ndecoded %+v", min.Scenario, decoded)
	}
	for run := 0; run < 2; run++ {
		rf := Check(decoded)
		if rf == nil || rf.Oracle != "adaptive-transition-budget" {
			t.Fatalf("replay %d of the minimal repro did not reproduce the budget violation: %+v", run, rf)
		}
	}
}

// TestInjectedEnergySkewCaught: corrupting the disk-energy total by one
// joule must trip the conservation oracle.
func TestInjectedEnergySkewCaught(t *testing.T) {
	s := Generate(corpusBase + 1)
	s.Inject = InjectEnergySkew
	f := Check(s)
	if f == nil {
		t.Fatal("injected energy skew was not caught")
	}
	if f.Oracle != "energy-conservation" {
		t.Fatalf("energy skew attributed to oracle %q: %s", f.Oracle, f.Msg)
	}
}

// TestRunArtifacts sanity-checks the artifact plumbing the oracles rely
// on: a journal is attached and the NPF arm really has power management
// and prefetching stripped.
func TestRunArtifacts(t *testing.T) {
	s := Generate(corpusBase + 2)
	s.Policy = cluster.Prefetch
	if s.PrefetchCount == 0 {
		s.PrefetchCount = 10
	}
	s.DriftPhases, s.FlashPct, s.DiurnalPct = 0, 0, 0
	if err := s.Valid(); err != nil {
		t.Fatalf("steered scenario invalid: %v", err)
	}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Error("PF arm journaled no events")
	}
	if a.NPF.PrefetchedFiles != 0 || a.NPF.SpinUps != 0 || a.NPF.SpinDowns != 0 {
		t.Errorf("NPF arm is not static: %+v", a.NPF)
	}
	if a.Result.Requests != a.NPF.Requests {
		t.Errorf("arms served different request counts: %d vs %d", a.Result.Requests, a.NPF.Requests)
	}
}
