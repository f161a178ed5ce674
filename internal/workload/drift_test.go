package workload

import (
	"math"
	"sort"
	"testing"
)

// TestDriftDeterministic: the same configuration must generate a
// bit-identical trace on every call — the property the repro codec and
// the seeded soak battery both stand on.
func TestDriftDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 12345} {
		cfg := DefaultDrift()
		cfg.Seed = seed
		cfg.FlashStartFrac, cfg.FlashDurFrac, cfg.FlashBoost = 0.4, 0.3, 0.5
		cfg.DiurnalPeriodSec, cfg.DiurnalAmplitude = 90, 0.4
		a, err := Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Records) != len(b.Records) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				t.Fatalf("seed %d: record %d differs: %+v vs %+v", seed, i, a.Records[i], b.Records[i])
			}
		}
	}
}

// phaseRotation is the phase rotation alone, flash and diurnal off, over
// ext-dynamic's 1000 files: Poisson(20) hot sets, phases of them.
func phaseRotation(phases int) SyntheticConfig {
	return SyntheticConfig{NumFiles: 1000, NumRequests: 1000, MeanSize: 10 * 1e6, MU: 20, Phases: phases, InterArrival: 0.7, Seed: 1}
}

// TestDriftingDefaults: ext-dynamic's ten-phase rotation generates a
// valid trace of NumRequests records.
func TestDriftingDefaults(t *testing.T) {
	cfg := phaseRotation(10)
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != cfg.NumRequests {
		t.Fatalf("records = %d, want %d", len(tr.Records), cfg.NumRequests)
	}
}

// TestDriftingHotSetMoves: with four phases the hot set's center is
// carried up the id space (0 -> 750), so the last quarter's mean id sits
// well above the first quarter's.
func TestDriftingHotSetMoves(t *testing.T) {
	tr, err := Synthetic(phaseRotation(4))
	if err != nil {
		t.Fatal(err)
	}
	quarter := len(tr.Records) / 4
	meanID := func(from int) float64 {
		sum := 0
		for _, r := range tr.Records[from : from+quarter] {
			sum += r.FileID
		}
		return float64(sum) / float64(quarter)
	}
	if first, last := meanID(0), meanID(3*quarter); last-first < 400 {
		t.Fatalf("hot set barely moved: first-quarter mean id %.0f, last %.0f", first, last)
	}
}

// TestDriftingSinglePhaseMatchesStationary: one phase keeps every id near
// Poisson(MU) around 0, and draws exactly the ids Phases = 0 draws.
func TestDriftingSinglePhaseMatchesStationary(t *testing.T) {
	one, zero := driftFIDs(t, phaseRotation(1)), driftFIDs(t, phaseRotation(0))
	for i, fid := range one {
		if fid > 100 {
			t.Fatalf("single-phase drift produced far id %d", fid)
		}
		if fid != zero[i] {
			t.Fatalf("request %d: Phases=1 drew id %d, Phases=0 drew %d", i, fid, zero[i])
		}
	}
}

// TestDriftingValidation: Synthetic refuses a phase-rotation config
// with any of the base fields out of range, and generates nothing.
func TestDriftingValidation(t *testing.T) {
	bad := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.NumFiles = 0 },
		func(c *SyntheticConfig) { c.NumRequests = -1 },
		func(c *SyntheticConfig) { c.MeanSize = 0 },
		func(c *SyntheticConfig) { c.MU = -1 },
		func(c *SyntheticConfig) { c.Phases = -1 },
		func(c *SyntheticConfig) { c.InterArrival = -1 },
	}
	for i, mod := range bad {
		cfg := phaseRotation(10)
		mod(&cfg)
		if tr, err := Synthetic(cfg); err == nil || tr != nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

// perEpochCounts tallies per-file access counts for each epoch, using
// the generator's own PhaseOf split.
func perEpochCounts(cfg SyntheticConfig, fids []int) []map[int]int {
	out := make([]map[int]int, cfg.Phases)
	for i := range out {
		out[i] = map[int]int{}
	}
	for i, fid := range fids {
		p := cfg.PhaseOf(i)
		if p >= len(out) {
			p = len(out) - 1
		}
		out[p][fid]++
	}
	return out
}

func driftFIDs(t *testing.T, cfg SyntheticConfig) []int {
	t.Helper()
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fids := make([]int, len(tr.Records))
	for i, r := range tr.Records {
		fids[i] = r.FileID
	}
	return fids
}

// TestDriftEpochsNonEmptyAndMoving: every popularity epoch must receive
// requests, and consecutive epochs must draw from (mostly) disjoint hot
// sets — the property that makes a one-shot offline ranking stale.
func TestDriftEpochsNonEmptyAndMoving(t *testing.T) {
	cfg := DefaultDrift()
	counts := perEpochCounts(cfg, driftFIDs(t, cfg))
	for p, c := range counts {
		if len(c) == 0 {
			t.Fatalf("epoch %d received no requests", p)
		}
	}
	for p := 1; p < len(counts); p++ {
		overlap, total := 0, 0
		for fid := range counts[p] {
			total++
			if counts[p-1][fid] > 0 {
				overlap++
			}
		}
		if total == 0 {
			continue
		}
		if frac := float64(overlap) / float64(total); frac > 0.5 {
			t.Errorf("epoch %d shares %.0f%% of its hot set with epoch %d; the hot set did not move",
				p, 100*frac, p-1)
		}
	}
}

// topK returns the k most-accessed file ids of one epoch, ties broken by
// id so the ranking is total.
func topK(c map[int]int, k int) []int {
	ids := make([]int, 0, len(c))
	for fid := range c {
		ids = append(ids, fid)
	}
	sort.Slice(ids, func(i, j int) bool {
		if c[ids[i]] != c[ids[j]] {
			return c[ids[i]] > c[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
}

// TestDriftMetamorphicVolumeScaling: doubling the request volume (same
// seed, same phases) is more evidence about the same per-epoch
// popularity law, so each epoch's ranking must stay anchored: the top
// file under N requests stays inside the top ten under 2N, and the two
// top-five sets share members. (Poisson(10) puts several ids within a
// fraction of a count of the mode, so exact top-1 agreement is sampling
// noise, not a generator property.) This pins "scale sharpens, never
// relocates, the per-epoch hot set" without golden files.
func TestDriftMetamorphicVolumeScaling(t *testing.T) {
	cfg := DefaultDrift()
	cfg.NumRequests = 800
	small := perEpochCounts(cfg, driftFIDs(t, cfg))
	big := cfg
	big.NumRequests = 1600
	large := perEpochCounts(big, driftFIDs(t, big))
	for p := range small {
		if len(small[p]) == 0 || len(large[p]) == 0 {
			t.Fatalf("epoch %d empty under scaling", p)
		}
		want := topK(small[p], 1)[0]
		in10 := false
		for _, fid := range topK(large[p], 10) {
			if fid == want {
				in10 = true
			}
		}
		if !in10 {
			t.Errorf("epoch %d: top file %d under %d requests fell out of the top 10 under %d",
				p, want, cfg.NumRequests, big.NumRequests)
		}
		overlap := 0
		for _, a := range topK(small[p], 5) {
			for _, b := range topK(large[p], 5) {
				if a == b {
					overlap++
				}
			}
		}
		if overlap < 2 {
			t.Errorf("epoch %d: top-5 sets share only %d files across scales", p, overlap)
		}
	}
}

// TestDriftFlashCrowd: inside the flash window roughly FlashBoost of the
// requests must land in the flash set, and outside it none should (the
// phase hot sets live at the bottom of the id space by construction).
func TestDriftFlashCrowd(t *testing.T) {
	cfg := DefaultDrift()
	cfg.FlashStartFrac = 0.5
	cfg.FlashDurFrac = 0.25
	cfg.FlashBoost = 0.6
	cfg.FlashFiles = 8
	fids := driftFIDs(t, cfg)
	lo, hi := cfg.flashSet()
	in, inFlashSet, outFlashSet := 0, 0, 0
	for i, fid := range fids {
		if cfg.inFlash(i) {
			in++
			if fid >= lo && fid < hi {
				inFlashSet++
			}
		} else if fid >= lo && fid < hi {
			outFlashSet++
		}
	}
	if in == 0 {
		t.Fatal("flash window covered no requests")
	}
	frac := float64(inFlashSet) / float64(in)
	if math.Abs(frac-cfg.FlashBoost) > 0.15 {
		t.Errorf("flash set got %.0f%% of in-window requests, want ~%.0f%%", 100*frac, 100*cfg.FlashBoost)
	}
	if outFlashSet != 0 {
		t.Errorf("%d requests hit the flash set outside the flash window", outFlashSet)
	}
}

// TestDriftDiurnalModulation: with diurnal modulation on, inter-arrival
// gaps must swing around the base rate — strictly longer near the crest,
// strictly shorter near the trough — while the mean stays near the base.
func TestDriftDiurnalModulation(t *testing.T) {
	cfg := DefaultDrift()
	cfg.DiurnalPeriodSec = 100
	cfg.DiurnalAmplitude = 0.5
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	longer, shorter := 0, 0
	sum := 0.0
	for i := 1; i < len(tr.Records); i++ {
		gap := tr.Records[i].TimeS - tr.Records[i-1].TimeS
		sum += gap
		if gap > cfg.InterArrival+1e-9 {
			longer++
		}
		if gap < cfg.InterArrival-1e-9 {
			shorter++
		}
	}
	if longer == 0 || shorter == 0 {
		t.Fatalf("diurnal modulation did not move gaps both ways (longer=%d shorter=%d)", longer, shorter)
	}
	mean := sum / float64(len(tr.Records)-1)
	if math.Abs(mean-cfg.InterArrival)/cfg.InterArrival > 0.25 {
		t.Errorf("diurnal mean gap %.3f strays too far from base %.3f", mean, cfg.InterArrival)
	}
}

// TestDriftValidateRejects walks the invalid corners of the config space.
func TestDriftValidateRejects(t *testing.T) {
	mods := map[string]func(*SyntheticConfig){
		"zero files":          func(c *SyntheticConfig) { c.NumFiles = 0 },
		"negative requests":   func(c *SyntheticConfig) { c.NumRequests = -1 },
		"zero mean size":      func(c *SyntheticConfig) { c.MeanSize = 0 },
		"negative mu":         func(c *SyntheticConfig) { c.MU = -1 },
		"negative phases":     func(c *SyntheticConfig) { c.Phases = -1 },
		"negative arrival":    func(c *SyntheticConfig) { c.InterArrival = -0.1 },
		"flash start 1":       func(c *SyntheticConfig) { c.FlashStartFrac = 1 },
		"flash dur 2":         func(c *SyntheticConfig) { c.FlashDurFrac = 2 },
		"flash boost -1":      func(c *SyntheticConfig) { c.FlashBoost = -1 },
		"flash files over":    func(c *SyntheticConfig) { c.FlashFiles = c.NumFiles + 1 },
		"negative period":     func(c *SyntheticConfig) { c.DiurnalPeriodSec = -1 },
		"amplitude 1":         func(c *SyntheticConfig) { c.DiurnalAmplitude = 1 },
		"amplitude no period": func(c *SyntheticConfig) { c.DiurnalAmplitude = 0.5; c.DiurnalPeriodSec = 0 },
	}
	for name, mod := range mods {
		cfg := DefaultDrift()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", name)
		}
	}
	if err := DefaultDrift().Validate(); err != nil {
		t.Errorf("DefaultDrift rejected: %v", err)
	}
}
