package disk

import (
	"math"
	"testing"
	"testing/quick"

	"eevfs/internal/simtime"
)

func testModel() Model {
	return Model{
		Name:          "test",
		BandwidthMBps: 50,
		AvgSeekSec:    0.008,
		AvgRotateSec:  0.004,
		CapacityGB:    80,
		PActive:       10,
		PIdle:         6,
		PStandby:      1,
		SpinUpSec:     2,
		SpinUpJ:       30,
		SpinDownSec:   1,
		SpinDownJ:     8,
	}
}

func TestCatalogModelsValid(t *testing.T) {
	for name, m := range Catalog {
		if err := m.Validate(); err != nil {
			t.Errorf("catalog model %q invalid: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("catalog key %q != model name %q", name, m.Name)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Model)
	}{
		{"zero bandwidth", func(m *Model) { m.BandwidthMBps = 0 }},
		{"negative seek", func(m *Model) { m.AvgSeekSec = -1 }},
		{"active below idle", func(m *Model) { m.PActive = 1 }},
		{"idle below standby", func(m *Model) { m.PIdle = 0.5 }},
		{"negative standby", func(m *Model) { m.PStandby = -1; m.PIdle = 0.5 }},
		{"zero spinup time", func(m *Model) { m.SpinUpSec = 0 }},
		{"zero spinup energy", func(m *Model) { m.SpinUpJ = 0 }},
		{"zero spindown energy", func(m *Model) { m.SpinDownJ = 0 }},
	}
	for _, tc := range cases {
		m := testModel()
		tc.mod(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid model", tc.name)
		}
	}
}

func TestTransferTime(t *testing.T) {
	m := testModel()
	// 50 MB at 50 MB/s = 1 s.
	if got := m.TransferTime(50e6); math.Abs(got-1) > 1e-12 {
		t.Errorf("TransferTime(50MB) = %g, want 1", got)
	}
	if got := m.TransferTime(0); got != 0 {
		t.Errorf("TransferTime(0) = %g, want 0", got)
	}
	if got := m.TransferTime(-5); got != 0 {
		t.Errorf("TransferTime(-5) = %g, want 0", got)
	}
}

func TestServiceTimeComposition(t *testing.T) {
	m := testModel()
	want := 0.008 + 0.004 + 0.2 // 10 MB at 50 MB/s
	if got := m.ServiceTime(10e6); math.Abs(got-want) > 1e-12 {
		t.Errorf("ServiceTime(10MB) = %g, want %g", got, want)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	m := testModel()
	if seq, rnd := m.SequentialTime(1e6), m.ServiceTime(1e6); seq >= rnd {
		t.Errorf("sequential %g not faster than random %g", seq, rnd)
	}
}

func TestBreakEvenFormula(t *testing.T) {
	m := testModel()
	// (8 + 30 - 1*(1+2)) / (6-1) = 35/5 = 7 s.
	if got := m.BreakEvenSec(); math.Abs(got-7) > 1e-12 {
		t.Errorf("BreakEvenSec = %g, want 7", got)
	}
}

// At the catalog drives' break-even, both above the cycle floor, sleeping
// saves nothing: SleepSavedJ and BreakEvenSec solve the same inequality.
func TestSleepSavedJZeroAtBreakEven(t *testing.T) {
	for _, m := range []Model{ModelType1, ModelType2} {
		be := m.BreakEvenSec()
		if be <= m.SpinDownSec+m.SpinUpSec {
			t.Fatalf("%s: break-even %g is the cycle floor", m.Name, be)
		}
		if got := m.SleepSavedJ(be); math.Abs(got) > 1e-9 {
			t.Errorf("%s: SleepSavedJ(%g) = %g, want 0", m.Name, be, got)
		}
		if m.SleepSavedJ(be-0.1) >= 0 || m.SleepSavedJ(be+0.1) <= 0 {
			t.Errorf("%s: SleepSavedJ does not change sign at break-even %g", m.Name, be)
		}
	}
}

// Property: SleepSavedJ is what a Disk is charged for idling through a gap
// minus what it is charged for sleeping through it, the spin-down starting
// at the gap's start and the spin-up ending at its end. Gaps run from the
// sleep/wake cycle, the shortest schedulable, to well past break-even.
func TestQuickSleepSavedJIsWhatTheDiskIsCharged(t *testing.T) {
	f := func(gapRaw uint16, second bool) bool {
		m := ModelType1
		if second {
			m = ModelType2
		}
		g := m.SpinDownSec + m.SpinUpSec + float64(gapRaw%4000)/100
		idle := New("idle", m)
		idle.Advance(simtime.Time(g))
		sleep := New("sleep", m)
		sleep.BeginSpinDown(0)
		sleep.CompleteSpinDown(simtime.Time(m.SpinDownSec))
		sleep.BeginSpinUp(simtime.Time(g - m.SpinUpSec))
		sleep.CompleteSpinUp(simtime.Time(g))
		charged := idle.Stats().EnergyJ - sleep.Stats().EnergyJ
		if math.Abs(m.SleepSavedJ(g)-charged) > 1e-9*m.PIdle*g {
			t.Logf("%s, gap %g s: SleepSavedJ %g, charged %g", m.Name, g, m.SleepSavedJ(g), charged)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakEvenFloorIsTransitionTime(t *testing.T) {
	m := testModel()
	// Make transitions nearly free: break-even must still cover the
	// physical transition latency.
	m.SpinUpJ, m.SpinDownJ = 0.001, 0.001
	if got, want := m.BreakEvenSec(), m.SpinUpSec+m.SpinDownSec; got < want {
		t.Errorf("BreakEvenSec = %g below transition floor %g", got, want)
	}
}

func TestStatePowerAllStates(t *testing.T) {
	m := testModel()
	cases := map[PowerState]float64{
		Active:       10,
		Idle:         6,
		Standby:      1,
		SpinningUp:   15, // 30 J over 2 s
		SpinningDown: 8,  // 8 J over 1 s
	}
	for st, want := range cases {
		if got := m.StatePower(st); math.Abs(got-want) > 1e-12 {
			t.Errorf("StatePower(%v) = %g, want %g", st, got, want)
		}
	}
}

func TestPowerStateStrings(t *testing.T) {
	for st, want := range map[PowerState]string{
		Active: "active", Idle: "idle", Standby: "standby",
		SpinningUp: "spinning-up", SpinningDown: "spinning-down",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), want)
		}
	}
	if PowerState(99).String() != "PowerState(99)" {
		t.Errorf("unknown state string = %q", PowerState(99).String())
	}
}

func TestDiskIdleEnergyIntegration(t *testing.T) {
	d := New("d0", testModel())
	d.Advance(10)
	st := d.Stats()
	if math.Abs(st.EnergyJ-60) > 1e-9 { // 10 s at 6 W idle
		t.Errorf("idle energy = %g, want 60", st.EnergyJ)
	}
	if math.Abs(st.TimeInState[Idle]-10) > 1e-12 {
		t.Errorf("idle dwell = %g, want 10", st.TimeInState[Idle])
	}
}

func TestServiceCycleEnergy(t *testing.T) {
	d := New("d0", testModel())
	d.BeginService(5)    // 5 s idle = 30 J
	d.EndService(7, 1e6) // 2 s active = 20 J
	d.Advance(10)        // 3 s idle = 18 J
	st := d.Stats()
	if math.Abs(st.EnergyJ-68) > 1e-9 {
		t.Errorf("energy = %g, want 68", st.EnergyJ)
	}
	if st.Requests != 1 || st.BytesMoved != 1e6 {
		t.Errorf("requests=%d bytes=%d, want 1, 1e6", st.Requests, st.BytesMoved)
	}
}

func TestFullSleepWakeCycle(t *testing.T) {
	d := New("d0", testModel())
	d.BeginSpinDown(10)    // 10 s idle = 60 J
	d.CompleteSpinDown(11) // 1 s spin-down = 8 J
	d.BeginSpinUp(31)      // 20 s standby = 20 J
	d.CompleteSpinUp(33)   // 2 s spin-up = 30 J
	d.Advance(34)          // 1 s idle = 6 J
	st := d.Stats()
	if math.Abs(st.EnergyJ-124) > 1e-9 {
		t.Errorf("energy = %g, want 124", st.EnergyJ)
	}
	if st.SpinUps != 1 || st.SpinDowns != 1 {
		t.Errorf("spinups=%d spindowns=%d, want 1 each", st.SpinUps, st.SpinDowns)
	}
	if st.Transitions() != 2 {
		t.Errorf("Transitions = %d, want 2", st.Transitions())
	}
	if d.State() != Idle {
		t.Errorf("final state %v, want Idle", d.State())
	}
}

func TestSleepingSavesEnergyBeyondBreakEven(t *testing.T) {
	m := testModel()
	gap := m.BreakEvenSec() * 3

	sleeper := New("s", m)
	sleeper.BeginSpinDown(0)
	sleeper.CompleteSpinDown(simtime.Time(m.SpinDownSec))
	sleeper.BeginSpinUp(simtime.Time(gap - m.SpinUpSec))
	sleeper.CompleteSpinUp(simtime.Time(gap))

	idler := New("i", m)
	idler.Advance(simtime.Time(gap))

	if se, ie := sleeper.Stats().EnergyJ, idler.Stats().EnergyJ; se >= ie {
		t.Errorf("sleeping used %g J >= idling %g J over %g s gap", se, ie, gap)
	}
}

func TestSleepingWastesEnergyBelowBreakEven(t *testing.T) {
	m := testModel()
	gap := m.BreakEvenSec() * 0.6
	if gap < m.SpinDownSec+m.SpinUpSec {
		t.Skip("gap shorter than transitions; cycle impossible")
	}

	sleeper := New("s", m)
	sleeper.BeginSpinDown(0)
	sleeper.CompleteSpinDown(simtime.Time(m.SpinDownSec))
	sleeper.BeginSpinUp(simtime.Time(gap - m.SpinUpSec))
	sleeper.CompleteSpinUp(simtime.Time(gap))

	idler := New("i", m)
	idler.Advance(simtime.Time(gap))

	if se, ie := sleeper.Stats().EnergyJ, idler.Stats().EnergyJ; se <= ie {
		t.Errorf("sleeping used %g J <= idling %g J below break-even", se, ie)
	}
}

func TestIllegalTransitionsPanic(t *testing.T) {
	cases := []struct {
		name string
		do   func(d *Disk)
	}{
		{"EndService while idle", func(d *Disk) { d.EndService(1, 0) }},
		{"BeginSpinUp while idle", func(d *Disk) { d.BeginSpinUp(1) }},
		{"CompleteSpinUp while idle", func(d *Disk) { d.CompleteSpinUp(1) }},
		{"CompleteSpinDown while idle", func(d *Disk) { d.CompleteSpinDown(1) }},
		{"BeginService while standby", func(d *Disk) {
			d.BeginSpinDown(1)
			d.CompleteSpinDown(2)
			d.BeginService(3)
		}},
		{"BeginSpinDown while active", func(d *Disk) {
			d.BeginService(1)
			d.BeginSpinDown(2)
		}},
		{"Advance backwards", func(d *Disk) {
			d.Advance(5)
			d.Advance(1)
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.do(New("d", testModel()))
		}()
	}
}

func TestNewRejectsInvalidModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid model")
		}
	}()
	m := testModel()
	m.BandwidthMBps = 0
	New("bad", m)
}

// Property: energy integrated over any partition of an idle interval equals
// the closed form PIdle * length, regardless of how Advance calls split it.
func TestQuickEnergyPartitionInvariant(t *testing.T) {
	m := testModel()
	f := func(cuts []uint16) bool {
		d := New("d", m)
		now := simtime.Time(0)
		total := 0.0
		for _, c := range cuts {
			dt := float64(c%1000) / 100.0
			now += simtime.Time(dt)
			total += dt
			d.Advance(now)
		}
		want := m.PIdle * total
		return math.Abs(d.Stats().EnergyJ-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total time-in-state always sums to the last Advance timestamp.
func TestQuickDwellTimesSumToElapsed(t *testing.T) {
	f := func(steps []uint8) bool {
		d := New("d", testModel())
		now := simtime.Time(0)
		step := func(dt float64) { now += simtime.Time(dt) }
		for _, s := range steps {
			switch s % 4 {
			case 0:
				step(1)
				d.Advance(now)
			case 1:
				if d.State() == Idle {
					d.BeginService(now)
					step(0.5)
					d.EndService(now, 100)
				}
			case 2:
				if d.State() == Idle {
					d.BeginSpinDown(now)
					step(d.Model().SpinDownSec)
					d.CompleteSpinDown(now)
				}
			case 3:
				if d.State() == Standby {
					d.BeginSpinUp(now)
					step(d.Model().SpinUpSec)
					d.CompleteSpinUp(now)
				}
			}
		}
		d.Advance(now)
		sum := 0.0
		for _, v := range d.Stats().TimeInState {
			sum += v
		}
		return math.Abs(sum-float64(now)) < 1e-9*(1+float64(now))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkServiceCycle(b *testing.B) {
	d := New("d", testModel())
	now := simtime.Time(0)
	for i := 0; i < b.N; i++ {
		d.BeginService(now)
		now += 0.01
		d.EndService(now, 1e6)
		now += 0.01
	}
}

func TestYearsToWearOut(t *testing.T) {
	st := Stats{SpinDowns: 100}
	// 100 cycles over 1000 s -> 0.1 cycles/s -> 50k cycles in 500k s.
	got := st.YearsToWearOut(1000, RatedStartStopCycles)
	want := 500_000.0 / (365.25 * 24 * 3600)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("YearsToWearOut = %g, want %g", got, want)
	}
	if !math.IsInf((Stats{}).YearsToWearOut(1000, 50000), 1) {
		t.Error("no cycles should mean infinite life")
	}
	if (Stats{SpinDowns: 5}).YearsToWearOut(0, 50000) != 0 {
		t.Error("zero span should return 0")
	}
}

func TestWearMonotoneInTransitionRate(t *testing.T) {
	slow := Stats{SpinDowns: 10}
	fast := Stats{SpinDowns: 1000}
	if fast.YearsToWearOut(700, RatedStartStopCycles) >= slow.YearsToWearOut(700, RatedStartStopCycles) {
		t.Fatal("more cycles should wear out faster")
	}
}
