package cluster

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"eevfs/internal/adaptive"
	"eevfs/internal/disk"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// tinyConfig returns a 1-node, 1-data-disk cluster with simple numbers.
func tinyConfig() Config {
	m := disk.Model{
		Name: "tiny", BandwidthMBps: 50, AvgSeekSec: 0.008, AvgRotateSec: 0.004,
		CapacityGB: 80, PActive: 10, PIdle: 6, PStandby: 1,
		SpinUpSec: 2, SpinUpJ: 30, SpinDownSec: 1, SpinDownJ: 8,
	}
	return Config{
		Nodes: []NodeConfig{{
			LinkMbps: 1000, DataModel: m, BufferModel: m, DataDisks: 1,
		}},
		NodeBasePowerW:   70,
		IdleThresholdSec: 5,
		Policy:           PrefetchHinted,
		PrefetchCount:    70,
		RouteLatencySec:  0.001,
	}
}

func singleReadTrace(size int64) *trace.Trace {
	return &trace.Trace{
		FileSizes: []int64{size},
		Records: []trace.Record{
			{Seq: 0, TimeS: 0, Op: trace.Read, FileID: 0, Size: size},
		},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultTestbed().Validate(); err != nil {
		t.Fatalf("default testbed invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = nil },
		func(c *Config) { c.Nodes[0].LinkMbps = 0 },
		func(c *Config) { c.Nodes[0].DataDisks = 0 },
		func(c *Config) { c.Nodes[1].DataDisks = 3 },
		func(c *Config) { c.Nodes[0].DataModel.BandwidthMBps = 0 },
		func(c *Config) { c.Nodes[0].BufferModel.PIdle = 0 },
		func(c *Config) { c.NodeBasePowerW = -1 },
		func(c *Config) { c.IdleThresholdSec = 0 },
		func(c *Config) { c.PrefetchCount = -1 },
		func(c *Config) { c.BufferCapacityBytes = -1 },
		func(c *Config) { c.RouteLatencySec = -1 },
		func(c *Config) { c.Policy = PrefetchPrewake + 1 },
		// The write buffer is the PF family's; no other arm buffers.
		func(c *Config) { c.Policy = MAID; c.WriteBuffer = true },
		func(c *Config) { c.Policy = AlwaysOn; c.WriteBuffer = true },
		func(c *Config) { c.Policy = ThresholdDPM; c.WriteBuffer = true },
		func(c *Config) { c.AdaptiveParams = &adaptive.Params{} }, // not Adaptive
		func(c *Config) { c.Policy = Adaptive; c.WriteBuffer = true },
		// Re-prefetching is the threshold-sleeping PF arm's; the hinted
		// arms' plans assume the static prefetch.
		func(c *Config) { c.Policy, c.ReprefetchEvery = AlwaysOn, 10 },
		func(c *Config) { c.Policy, c.ReprefetchEvery = ThresholdDPM, 10 },
		func(c *Config) { c.Policy, c.ReprefetchEvery = MAID, 10 },
		func(c *Config) { c.Policy, c.ReprefetchEvery = Adaptive, 10 },
		func(c *Config) { c.Policy, c.ReprefetchEvery = PrefetchHinted, 10 },
		func(c *Config) { c.Policy, c.ReprefetchEvery = PrefetchPrewake, 10 },
	}
	// Every policy value is legal on the testbed, and Prefetch with
	// re-prefetching.
	good := []func(*Config){
		func(c *Config) { c.Policy, c.ReprefetchEvery = Prefetch, 10 },
	}
	for p := AlwaysOn; p <= PrefetchPrewake; p++ {
		good = append(good, func(c *Config) { c.Policy = p })
	}
	for i, mod := range good {
		cfg := DefaultTestbed()
		mod(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("good case %d (%v): %v", i, cfg.Policy, err)
		}
	}
	for i, mod := range bad {
		cfg := DefaultTestbed()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNPFHelper(t *testing.T) {
	base := DefaultTestbed()
	base.Policy = PrefetchPrewake
	base.Concentrate, base.WriteBuffer = true, true
	cfg := base.NPF()
	if cfg.Policy != AlwaysOn || cfg.Concentrate || cfg.WriteBuffer {
		t.Fatalf("NPF() left a policy option on: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	ad := base.AdaptiveArm()
	if ad.Policy != Adaptive {
		t.Fatalf("AdaptiveArm() policy %v", ad.Policy)
	}
	if err := ad.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsInvalidInputs(t *testing.T) {
	cfg := tinyConfig()
	cfg.IdleThresholdSec = 0
	if _, err := Run(cfg, singleReadTrace(1e6)); err == nil {
		t.Error("invalid config accepted")
	}
	tr := singleReadTrace(1e6)
	tr.Records[0].FileID = 5
	if _, err := Run(tinyConfig(), tr); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestSingleReadNPFTimings(t *testing.T) {
	cfg := tinyConfig().NPF()
	size := int64(10e6)
	res, err := Run(cfg, singleReadTrace(size))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 || res.Response.N != 1 {
		t.Fatalf("requests=%d responses=%d", res.Requests, res.Response.N)
	}

	m := cfg.Nodes[0].DataModel
	service := m.ServiceTime(size)
	transfer := float64(size) * 8 / (1000 * 1e6)
	want := cfg.RouteLatencySec + service + 0.0001 + transfer + cfg.RouteLatencySec
	if math.Abs(res.Response.Mean-want) > 1e-9 {
		t.Errorf("response = %g, want %g", res.Response.Mean, want)
	}
	if res.Transitions != 0 {
		t.Errorf("NPF transitions = %d, want 0", res.Transitions)
	}
	if res.BufferHits != 0 || res.BufferMisses != 1 {
		t.Errorf("hits=%d misses=%d", res.BufferHits, res.BufferMisses)
	}
	// Energy sanity: base power dominates; all disks spinning.
	if res.TotalEnergyJ <= 0 || res.BaseEnergyJ <= 0 {
		t.Error("non-positive energy")
	}
	wantBase := cfg.NodeBasePowerW * res.MakespanSec
	if math.Abs(res.BaseEnergyJ-wantBase) > 1e-6 {
		t.Errorf("base energy = %g, want %g", res.BaseEnergyJ, wantBase)
	}
}

func TestSingleReadPFHitsBuffer(t *testing.T) {
	res, err := Run(tinyConfig(), singleReadTrace(10e6))
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferHits != 1 || res.BufferMisses != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0", res.BufferHits, res.BufferMisses)
	}
	if res.PrefetchedFiles != 1 {
		t.Fatalf("PrefetchedFiles = %d, want 1", res.PrefetchedFiles)
	}
	if res.PrefetchEndSec <= 0 {
		t.Fatal("prefetch phase should take time")
	}
	// The lone data disk should have gone to standby right after the
	// prefetch phase (no residual accesses): exactly one spin-down,
	// zero spin-ups.
	if res.SpinDowns != 1 || res.SpinUps != 0 {
		t.Fatalf("spindowns=%d spinups=%d, want 1/0", res.SpinDowns, res.SpinUps)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultTestbed()
	tr, err := workload.Synthetic(workload.DefaultSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs produced different results")
	}
}

func TestPFBeatsNPFOnSkewedWorkload(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 100 // fully covered by K=70
	tr, err := workload.Synthetic(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTestbed()
	pf, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	npf, err := Run(cfg.NPF(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if pf.TotalEnergyJ >= npf.TotalEnergyJ {
		t.Fatalf("PF energy %g >= NPF %g", pf.TotalEnergyJ, npf.TotalEnergyJ)
	}
	savings := pf.EnergySavingsVs(npf)
	if savings < 5 || savings > 30 {
		t.Errorf("savings = %.1f%%, want in the 5..30%% band (paper: 11..17%%)", savings)
	}
	// Full coverage: all reads hit the buffer disks.
	if pf.HitRatio() < 0.999 {
		t.Errorf("hit ratio = %g, want ~1 for MU=100, K=70", pf.HitRatio())
	}
	// Disks sleep at the start and never wake: no response penalty worth
	// mentioning (paper Section VI-C).
	if penalty := pf.ResponsePenaltyVs(npf); math.Abs(penalty) > 5 {
		t.Errorf("response penalty = %.1f%%, want ~0 when disks sleep whole trace", penalty)
	}
}

func TestPartialCoverageWakesDisks(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 1000 // ~74% coverage with K=70
	tr, err := workload.Synthetic(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTestbed()
	pf, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if pf.HitRatio() < 0.6 || pf.HitRatio() > 0.9 {
		t.Errorf("hit ratio = %g, want ~0.74", pf.HitRatio())
	}
	if pf.SpinUps == 0 {
		t.Error("partial coverage should cause reactive spin-ups")
	}
	npf, err := Run(cfg.NPF(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if pf.TotalEnergyJ >= npf.TotalEnergyJ {
		t.Errorf("PF energy %g >= NPF %g even at partial coverage", pf.TotalEnergyJ, npf.TotalEnergyJ)
	}
	// Misses pay wake latency: the response penalty must be visible.
	if pf.Response.Mean <= npf.Response.Mean {
		t.Error("expected a response-time penalty from spin-ups")
	}
}

func TestThresholdModeSleeps(t *testing.T) {
	// PF without hints: the idle-threshold timer must produce sleeps.
	cfg := DefaultTestbed()
	cfg.Policy = Prefetch
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 100
	tr, _ := workload.Synthetic(wcfg)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpinDowns == 0 {
		t.Fatal("threshold mode produced no spin-downs")
	}
}

func TestDPMWithoutPrefetchBaseline(t *testing.T) {
	cfg := DefaultTestbed().NPF()
	cfg.Policy = ThresholdDPM
	wcfg := workload.DefaultSynthetic()
	wcfg.NumRequests = 200
	tr, _ := workload.Synthetic(wcfg)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transitions == 0 {
		t.Fatal("threshold DPM produced no transitions")
	}
	if res.BufferHits != 0 {
		t.Fatal("no prefetch yet buffer hits recorded")
	}
}

func TestPrewakeReducesPenalty(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 1000
	tr, _ := workload.Synthetic(wcfg)
	cfg := DefaultTestbed()
	reactive, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = PrefetchPrewake
	prewake, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if prewake.Response.Mean >= reactive.Response.Mean {
		t.Errorf("prewake mean %g >= reactive %g", prewake.Response.Mean, reactive.Response.Mean)
	}
}

func TestWriteBufferPath(t *testing.T) {
	cfg := tinyConfig()
	cfg.WriteBuffer = true
	size := int64(1e6)
	tr := &trace.Trace{
		FileSizes: []int64{size, size},
		Records: []trace.Record{
			{Seq: 0, TimeS: 0, Op: trace.Read, FileID: 0, Size: size},
			{Seq: 1, TimeS: 1, Op: trace.Write, FileID: 1, Size: size},
			{Seq: 2, TimeS: 2, Op: trace.Write, FileID: 1, Size: size},
		},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferedWrites != 2 || res.DirectWrites != 0 {
		t.Fatalf("buffered=%d direct=%d, want 2/0", res.BufferedWrites, res.DirectWrites)
	}
	if res.FlushedBytes != 2*size {
		t.Fatalf("FlushedBytes = %d, want %d", res.FlushedBytes, 2*size)
	}
	if res.WriteResponse.N != 2 {
		t.Fatalf("write responses = %d", res.WriteResponse.N)
	}
}

func TestWritesGoDirectWithoutWriteBuffer(t *testing.T) {
	cfg := tinyConfig()
	size := int64(1e6)
	tr := &trace.Trace{
		FileSizes: []int64{size},
		Records: []trace.Record{
			{Seq: 0, TimeS: 0, Op: trace.Write, FileID: 0, Size: size},
		},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirectWrites != 1 || res.BufferedWrites != 0 {
		t.Fatalf("direct=%d buffered=%d, want 1/0", res.DirectWrites, res.BufferedWrites)
	}
	if res.FlushedBytes != 0 {
		t.Fatalf("FlushedBytes = %d, want 0", res.FlushedBytes)
	}
}

func TestBufferCapacityLimitsPrefetch(t *testing.T) {
	cfg := tinyConfig()
	cfg.BufferCapacityBytes = 15e6 // room for one 10 MB file only
	tr := &trace.Trace{
		FileSizes: []int64{10e6, 10e6},
		Records: []trace.Record{
			{Seq: 0, TimeS: 0, Op: trace.Read, FileID: 0, Size: 10e6},
			{Seq: 1, TimeS: 1, Op: trace.Read, FileID: 1, Size: 10e6},
		},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchedFiles != 1 {
		t.Fatalf("PrefetchedFiles = %d, want 1 (capacity-limited)", res.PrefetchedFiles)
	}
	if res.BufferHits != 1 || res.BufferMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", res.BufferHits, res.BufferMisses)
	}
}

func TestReactiveWakePenaltyVisible(t *testing.T) {
	// Two reads far apart on the same data disk, not prefetched (K=0):
	// the second one must pay the spin-up latency under hints.
	cfg := tinyConfig()
	cfg.PrefetchCount = 0
	size := int64(1e6)
	tr := &trace.Trace{
		FileSizes: []int64{size},
		Records: []trace.Record{
			{Seq: 0, TimeS: 0, Op: trace.Read, FileID: 0, Size: size},
			{Seq: 1, TimeS: 100, Op: trace.Read, FileID: 0, Size: size},
		},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpinDowns < 1 || res.SpinUps < 1 {
		t.Fatalf("spindowns=%d spinups=%d, want >=1 each", res.SpinDowns, res.SpinUps)
	}
	m := cfg.Nodes[0].DataModel
	if res.Response.Max < m.SpinUpSec {
		t.Errorf("max response %g < spin-up %g: wake penalty not charged",
			res.Response.Max, m.SpinUpSec)
	}
}

func TestMakespanCoversTraceDuration(t *testing.T) {
	tr, _ := workload.Synthetic(workload.DefaultSynthetic())
	res, err := Run(DefaultTestbed(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec < tr.Duration() {
		t.Fatalf("makespan %g < trace duration %g", res.MakespanSec, tr.Duration())
	}
	if res.Response.N != len(tr.Records) {
		t.Fatalf("responses %d != records %d", res.Response.N, len(tr.Records))
	}
}

func TestPerDiskAccountingConsistent(t *testing.T) {
	tr, _ := workload.Synthetic(workload.DefaultSynthetic())
	res, err := Run(DefaultTestbed(), tr)
	if err != nil {
		t.Fatal(err)
	}
	wantDisks := 8 * 3 // buffer + 2 data per node
	if len(res.PerDisk) != wantDisks {
		t.Fatalf("PerDisk has %d entries, want %d", len(res.PerDisk), wantDisks)
	}
	var energy float64
	var ups, downs int
	for _, st := range res.PerDisk {
		energy += st.EnergyJ
		ups += st.SpinUps
		downs += st.SpinDowns
		// Every disk's dwell times must sum to the makespan.
		sum := 0.0
		for _, v := range st.TimeInState {
			sum += v
		}
		if math.Abs(sum-res.MakespanSec) > 1e-6*(1+res.MakespanSec) {
			t.Errorf("disk %s dwell %g != makespan %g", st.Name, sum, res.MakespanSec)
		}
	}
	if math.Abs(energy-res.DiskEnergyJ) > 1e-6 {
		t.Errorf("disk energy sum %g != DiskEnergyJ %g", energy, res.DiskEnergyJ)
	}
	if ups != res.SpinUps || downs != res.SpinDowns {
		t.Errorf("transition sums inconsistent")
	}
	if res.Transitions != res.SpinUps+res.SpinDowns {
		t.Errorf("Transitions != ups+downs")
	}
}

func TestEnergyIdentity(t *testing.T) {
	tr, _ := workload.Synthetic(workload.DefaultSynthetic())
	res, err := Run(DefaultTestbed(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalEnergyJ-(res.BaseEnergyJ+res.DiskEnergyJ)) > 1e-6 {
		t.Fatal("TotalEnergyJ != BaseEnergyJ + DiskEnergyJ")
	}
}

func TestResultStringNonEmpty(t *testing.T) {
	res, err := Run(tinyConfig(), singleReadTrace(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestZeroInterArrivalHeavyLoad(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	wcfg.InterArrival = 0
	wcfg.NumRequests = 300
	tr, _ := workload.Synthetic(wcfg)
	cfg := DefaultTestbed()
	pf, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	npf, err := Run(cfg.NPF(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// All requests arrive at t=0: massive queueing, responses grow, but
	// the run must terminate and PF must not lose energy.
	if pf.TotalEnergyJ > npf.TotalEnergyJ*1.02 {
		t.Errorf("PF energy %g substantially exceeds NPF %g under burst load",
			pf.TotalEnergyJ, npf.TotalEnergyJ)
	}
	if pf.Response.Max <= pf.Response.Min {
		t.Error("burst load should spread response times")
	}
}

func BenchmarkRunDefaultTestbed(b *testing.B) {
	tr, err := workload.Synthetic(workload.DefaultSynthetic())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultTestbed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMAIDEvictionUnderTightCapacity(t *testing.T) {
	cfg := tinyConfig().NPF()
	cfg.Policy = MAID
	cfg.BufferCapacityBytes = 1e6 // room for exactly one 1 MB file
	size := int64(1e6)
	tr := &trace.Trace{
		FileSizes: []int64{size, size},
		Records: []trace.Record{
			{Seq: 0, TimeS: 0, Op: trace.Read, FileID: 0, Size: size}, // miss, cache 0
			{Seq: 1, TimeS: 1, Op: trace.Read, FileID: 1, Size: size}, // miss, evict 0
			{Seq: 2, TimeS: 2, Op: trace.Read, FileID: 1, Size: size}, // hit
			{Seq: 3, TimeS: 3, Op: trace.Read, FileID: 0, Size: size}, // miss again
		},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferHits != 1 || res.BufferMisses != 3 {
		t.Fatalf("hits=%d misses=%d, want 1/3", res.BufferHits, res.BufferMisses)
	}
}

func TestConcentratePlacementRuns(t *testing.T) {
	cfg := DefaultTestbed().NPF()
	cfg.Concentrate = true
	cfg.Policy = ThresholdDPM
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 10 // tight hot set: concentration lets cold disks sleep
	tr, _ := workload.Synthetic(wcfg)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transitions == 0 {
		t.Fatal("PDC-style run produced no transitions")
	}
	npf, _ := Run(DefaultTestbed().NPF(), tr)
	if res.TotalEnergyJ >= npf.TotalEnergyJ {
		t.Errorf("PDC energy %g >= AlwaysOn %g on a hot-set workload",
			res.TotalEnergyJ, npf.TotalEnergyJ)
	}
}

func TestStripingImprovesMissResponse(t *testing.T) {
	// Large files, no prefetch coverage (K=0): every read is a striped
	// data-disk read. Striping across 2 disks should cut the disk phase
	// of the response roughly in half.
	wcfg := workload.DefaultSynthetic()
	wcfg.MeanSize = 25e6
	wcfg.MU = 1000
	tr, _ := workload.Synthetic(wcfg)

	base := DefaultTestbed().NPF()
	whole, err := Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	base.StripeChunkBytes = 5e6
	striped, err := Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	if striped.Response.Mean >= whole.Response.Mean {
		t.Fatalf("striped mean %g >= whole-file %g", striped.Response.Mean, whole.Response.Mean)
	}
}

func TestStripingPreservesEnergySavings(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 100
	tr, _ := workload.Synthetic(wcfg)
	cfg := DefaultTestbed()
	cfg.StripeChunkBytes = 5e6
	pf, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	npf, err := Run(cfg.NPF(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if savings := pf.EnergySavingsVs(npf); savings < 10 {
		t.Fatalf("striped PF savings %.1f%%, want >= 10%%", savings)
	}
	if pf.Response.N != len(tr.Records) {
		t.Fatalf("striped run lost responses: %d of %d", pf.Response.N, len(tr.Records))
	}
}

func TestStripedWritesAndFlush(t *testing.T) {
	cfg := tinyConfig()
	cfg.Nodes[0].DataDisks = 2
	cfg.StripeChunkBytes = 1e6
	cfg.WriteBuffer = true
	size := int64(3e6) // 3 chunks over 2 disks
	tr := &trace.Trace{
		FileSizes: []int64{size},
		Records: []trace.Record{
			{Seq: 0, TimeS: 0, Op: trace.Write, FileID: 0, Size: size},
		},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferedWrites != 1 {
		t.Fatalf("buffered = %d", res.BufferedWrites)
	}
	if res.FlushedBytes != size {
		t.Fatalf("flushed = %d, want %d", res.FlushedBytes, size)
	}
}

func TestStripedDirectWriteSingleResponse(t *testing.T) {
	cfg := tinyConfig().NPF()
	cfg.Nodes[0].DataDisks = 2
	cfg.StripeChunkBytes = 1e6
	size := int64(4e6)
	tr := &trace.Trace{
		FileSizes: []int64{size},
		Records: []trace.Record{
			{Seq: 0, TimeS: 0, Op: trace.Write, FileID: 0, Size: size},
		},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.N != 1 || res.WriteResponse.N != 1 {
		t.Fatalf("responses = %d/%d, want exactly 1", res.Response.N, res.WriteResponse.N)
	}
}

// tenPhases is ext-dynamic's drifting workload: ten disjoint phase hot
// sets over 1000 files.
var tenPhases = workload.SyntheticConfig{NumFiles: 1000, NumRequests: 1000, MeanSize: 10 * 1e6,
	MU: 20, Phases: 10, InterArrival: 0.7, Seed: 1}

func TestReprefetchFollowsDrift(t *testing.T) {
	tr, err := workload.Synthetic(tenPhases)
	if err != nil {
		t.Fatal(err)
	}
	static := DefaultTestbed()
	static.Policy = Prefetch // threshold sleeping for both arms
	staticRes, err := Run(static, tr)
	if err != nil {
		t.Fatal(err)
	}
	dynamic := static
	dynamic.ReprefetchEvery = 25
	dynamicRes, err := Run(dynamic, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The static (oracle-ranked) top-70 prefetch covers only part of the
	// drifting mass; windowed re-prefetching follows the hot set.
	if staticRes.HitRatio() > 0.7 {
		t.Fatalf("static hit ratio %.2f unexpectedly high", staticRes.HitRatio())
	}
	if dynamicRes.HitRatio() < staticRes.HitRatio()+0.15 {
		t.Fatalf("dynamic hit ratio %.2f not clearly above static %.2f",
			dynamicRes.HitRatio(), staticRes.HitRatio())
	}
	if dynamicRes.TotalEnergyJ >= staticRes.TotalEnergyJ {
		t.Fatalf("dynamic energy %g >= static %g under drift",
			dynamicRes.TotalEnergyJ, staticRes.TotalEnergyJ)
	}
}

func TestReprefetchValidation(t *testing.T) {
	cfg := DefaultTestbed()
	cfg.ReprefetchEvery = 100 // the hinted arm
	if err := cfg.Validate(); err == nil {
		t.Fatal("ReprefetchEvery with hints accepted")
	}
	cfg = DefaultTestbed().NPF()
	cfg.ReprefetchEvery = 100
	if err := cfg.Validate(); err == nil {
		t.Fatal("ReprefetchEvery without Prefetch accepted")
	}
	cfg = DefaultTestbed()
	cfg.StripeChunkBytes = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative stripe accepted")
	}
}

func TestReprefetchDeterministic(t *testing.T) {
	tr, _ := workload.Synthetic(tenPhases)
	cfg := DefaultTestbed()
	cfg.Policy = Prefetch
	cfg.ReprefetchEvery = 25
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("dynamic re-prefetch runs diverged")
	}
}

// Property: across random workload/config corners, the simulator conserves
// its accounting — every request gets exactly one response, reads split
// exactly into hits and misses, energy identities hold, and per-disk dwell
// times tile the makespan.
func TestQuickSimulationConservation(t *testing.T) {
	f := func(seed uint64, muRaw uint16, kRaw, reqRaw uint8, policy uint8) bool {
		w := workload.SyntheticConfig{
			NumFiles:      50,
			NumRequests:   int(reqRaw)%80 + 1,
			MeanSize:      2e6,
			MU:            float64(muRaw % 200),
			InterArrival:  0.3,
			WriteFraction: 0.2,
			Seed:          seed,
		}
		tr, err := workload.Synthetic(w)
		if err != nil {
			return false
		}
		cfg := DefaultTestbed()
		cfg.PrefetchCount = int(kRaw) % 50
		switch policy % 5 {
		case 0:
			cfg = cfg.NPF()
		case 1: // defaults: PF + hints
		case 2:
			cfg.Policy = Prefetch
		case 3:
			cfg.Policy = Prefetch
			cfg.WriteBuffer = true
		case 4:
			cfg = cfg.NPF()
			cfg.Policy = MAID
		}
		res, err := Run(cfg, tr)
		if err != nil {
			return false
		}

		reads, writes := 0, 0
		for _, r := range tr.Records {
			if r.Op == trace.Read {
				reads++
			} else {
				writes++
			}
		}
		if res.Response.N != len(tr.Records) {
			return false
		}
		if res.ReadResponse.N != reads || res.WriteResponse.N != writes {
			return false
		}
		if res.BufferHits+res.BufferMisses != int64(reads) {
			return false
		}
		if res.BufferedWrites+res.DirectWrites != int64(writes) {
			return false
		}
		if math.Abs(res.TotalEnergyJ-(res.BaseEnergyJ+res.DiskEnergyJ)) > 1e-6 {
			return false
		}
		if res.Transitions != res.SpinUps+res.SpinDowns {
			return false
		}
		for _, st := range res.PerDisk {
			sum := 0.0
			for _, v := range st.TimeInState {
				sum += v
			}
			if math.Abs(sum-res.MakespanSec) > 1e-6*(1+res.MakespanSec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWorstWearYears(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	tr, _ := workload.Synthetic(wcfg)
	pf, err := Run(DefaultTestbed(), tr)
	if err != nil {
		t.Fatal(err)
	}
	wear := pf.WorstWearYears(disk.RatedStartStopCycles)
	if wear <= 0 || math.IsInf(wear, 1) {
		t.Fatalf("wear = %g, want finite positive (the MU=1000 run cycles disks)", wear)
	}
	npf, err := Run(DefaultTestbed().NPF(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(npf.WorstWearYears(disk.RatedStartStopCycles), 1) {
		t.Fatal("NPF never sleeps: wear must be infinite")
	}
}

// TestPreBudGateBlocksHopelessSleeping pins Section IV-C's conservative
// behaviour: when every predicted idle window is below the sleep gate,
// the hints predictor forbids standby transitions entirely.
func TestPreBudGateBlocksHopelessSleeping(t *testing.T) {
	// One node, one data disk, K=0 (nothing prefetched), steady requests
	// every 2 s: every gap is under the 5 s threshold, so sleeping could
	// only lose energy. With hints the disk must never transition.
	cfg := tinyConfig()
	cfg.PrefetchCount = 0
	size := int64(1e6)
	tr := &trace.Trace{FileSizes: []int64{size}}
	for i := 0; i < 40; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Seq: int64(i), TimeS: 2 * float64(i), Op: trace.Read, FileID: 0, Size: size,
		})
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The only window that clears the gate is the tail after the final
	// request, so at most one final spin-down and never a wake-up.
	if res.SpinUps != 0 {
		t.Fatalf("spin-ups = %d, want 0 (no mid-trace sleeping)", res.SpinUps)
	}
	if res.SpinDowns > 1 {
		t.Fatalf("spin-downs = %d, want <= 1 (end-of-trace only)", res.SpinDowns)
	}
	// Contrast: the reactive threshold policy has no such foresight but
	// also never fires here (gaps < threshold), while a 1 s threshold
	// would thrash.
	cfg.Policy = Prefetch
	cfg.IdleThresholdSec = 1
	thrash, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if thrash.Transitions == 0 {
		t.Fatal("1 s threshold policy should thrash on 2 s gaps")
	}
	withHints, err := Run(tinyConfigWith(func(c *Config) {
		c.PrefetchCount = 0
		c.IdleThresholdSec = 1
	}), tr)
	if err != nil {
		t.Fatal(err)
	}
	// The gate's payoff: the blind threshold policy pays spin-up latency
	// on nearly every request, the predictor-gated policy on none.
	if withHints.Response.Mean*5 >= thrash.Response.Mean {
		t.Fatalf("hints response %g not clearly below thrashing policy %g",
			withHints.Response.Mean, thrash.Response.Mean)
	}
	if withHints.SpinUps != 0 {
		t.Fatalf("gated policy woke a disk %d times", withHints.SpinUps)
	}
}

// tinyConfigWith returns tinyConfig with modifications applied.
func tinyConfigWith(mod func(*Config)) Config {
	cfg := tinyConfig()
	mod(&cfg)
	return cfg
}

func TestMultipleBufferDisks(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 100
	tr, _ := workload.Synthetic(wcfg)

	run := func(m int) Result {
		cfg := DefaultTestbed()
		for i := range cfg.Nodes {
			cfg.Nodes[i].BufferDisks = m
		}
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	two := run(2)

	// Same coverage either way...
	if one.HitRatio() != 1 || two.HitRatio() != 1 {
		t.Fatalf("hit ratios %g / %g, want 1", one.HitRatio(), two.HitRatio())
	}
	// ...but the second buffer disk adds its own idle power draw, so the
	// paper's observation holds: "you would need many data disks to
	// amortize the energy cost of adding an extra disk".
	if two.TotalEnergyJ <= one.TotalEnergyJ {
		t.Fatalf("m=2 energy %g not above m=1 %g", two.TotalEnergyJ, one.TotalEnergyJ)
	}
	// Disk inventory: 8 nodes x (2 buffers + 2 data).
	if len(two.PerDisk) != 8*4 {
		t.Fatalf("PerDisk = %d entries, want 32", len(two.PerDisk))
	}
}

func TestMultipleBufferDisksRelieveBufferBottleneck(t *testing.T) {
	// Heavy buffer load: full coverage + zero inter-arrival delay puts the
	// whole burst on the buffer disks; a second buffer halves the queue.
	wcfg := workload.DefaultSynthetic()
	wcfg.MU = 100
	wcfg.InterArrival = 0
	wcfg.NumRequests = 400
	tr, _ := workload.Synthetic(wcfg)

	run := func(m int) Result {
		cfg := DefaultTestbed()
		for i := range cfg.Nodes {
			cfg.Nodes[i].BufferDisks = m
		}
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	two := run(2)
	if two.Response.Mean >= one.Response.Mean {
		t.Fatalf("m=2 response %g not below m=1 %g under buffer-bound burst",
			two.Response.Mean, one.Response.Mean)
	}
}

func TestBufferDisksValidation(t *testing.T) {
	cfg := DefaultTestbed()
	cfg.Nodes[0].BufferDisks = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative BufferDisks accepted")
	}
}
