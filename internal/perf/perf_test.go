package perf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/noc"
)

var (
	computeBound = Params{BaseCPI: 0.8, MPKI: 1}
	memoryBound  = Params{BaseCPI: 1.2, MPKI: 25}
)

func testPerf(t testing.TB, w, h int) (*Model, *floorplan.Floorplan) {
	t.Helper()
	fp := floorplan.MustNew(w, h, 0.0009)
	net, err := noc.New(fp, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(net, DefaultBankAccess)
	if err != nil {
		t.Fatal(err)
	}
	return m, fp
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{BaseCPI: 1, MPKI: 5}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{BaseCPI: 0, MPKI: 5}).Validate(); err == nil {
		t.Error("zero BaseCPI accepted")
	}
	if err := (Params{BaseCPI: 1, MPKI: -1}).Validate(); err == nil {
		t.Error("negative MPKI accepted")
	}
}

func TestNewValidation(t *testing.T) {
	fp := floorplan.MustNew(2, 2, 0.0009)
	net, _ := noc.New(fp, noc.DefaultConfig())
	if _, err := New(net, -1e-9); err == nil {
		t.Error("negative bank access accepted")
	}
}

func TestCentralCoreFasterForMemoryBound(t *testing.T) {
	// S-NUCA heterogeneity: memory-bound threads run faster on low-AMD cores.
	m, fp := testPerf(t, 8, 8)
	center := fp.ID(3, 3)
	corner := fp.ID(0, 0)
	if m.IPS(memoryBound, center, 4e9) <= m.IPS(memoryBound, corner, 4e9) {
		t.Error("memory-bound thread not faster on central core")
	}
	// The gap matters: several percent.
	ratio := m.IPS(memoryBound, center, 4e9) / m.IPS(memoryBound, corner, 4e9)
	if ratio < 1.02 {
		t.Errorf("center/corner speedup = %.4f, want noticeable (> 1.02)", ratio)
	}
}

func TestComputeBoundInsensitiveToPlacement(t *testing.T) {
	m, fp := testPerf(t, 8, 8)
	center := fp.ID(3, 3)
	corner := fp.ID(0, 0)
	ratio := m.IPS(computeBound, center, 4e9) / m.IPS(computeBound, corner, 4e9)
	if ratio > 1.05 {
		t.Errorf("compute-bound placement sensitivity %.4f too strong", ratio)
	}
}

func TestDVFSAsymmetry(t *testing.T) {
	// Halving f roughly halves compute-bound speed but barely touches a
	// memory-dominated thread — the asymmetry HotPotato exploits against
	// DVFS-based baselines.
	m, fp := testPerf(t, 8, 8)
	core := fp.ID(3, 3)
	slowCompute := m.SlowdownAt(computeBound, core, 2e9, 4e9)
	slowMemory := m.SlowdownAt(memoryBound, core, 2e9, 4e9)
	if slowCompute < 1.8 {
		t.Errorf("compute-bound slowdown at f/2 = %.3f, want ≈2", slowCompute)
	}
	if slowMemory > slowCompute-0.2 {
		t.Errorf("memory-bound slowdown %.3f not clearly below compute-bound %.3f",
			slowMemory, slowCompute)
	}
}

func TestEffectiveCPIOrdersByMemoryBoundness(t *testing.T) {
	m, fp := testPerf(t, 8, 8)
	core := fp.ID(3, 3)
	if m.EffectiveCPI(memoryBound, core, 4e9) <= m.EffectiveCPI(computeBound, core, 4e9) {
		t.Error("memory-bound thread does not have higher effective CPI")
	}
}

func TestFractionsSumToOne(t *testing.T) {
	m, fp := testPerf(t, 4, 4)
	for core := 0; core < fp.NumCores(); core++ {
		for _, p := range []Params{computeBound, memoryBound} {
			busy, stall := m.Fractions(p, core, 3e9)
			if math.Abs(busy+stall-1) > 1e-12 {
				t.Fatalf("fractions sum %v", busy+stall)
			}
			if busy < 0 || stall < 0 {
				t.Fatalf("negative fraction busy=%v stall=%v", busy, stall)
			}
		}
	}
}

func TestMemoryBoundStallsMore(t *testing.T) {
	m, fp := testPerf(t, 4, 4)
	core := fp.ID(1, 1)
	_, stallMem := m.Fractions(memoryBound, core, 4e9)
	_, stallCmp := m.Fractions(computeBound, core, 4e9)
	if stallMem <= stallCmp {
		t.Errorf("memory-bound stall %.3f not above compute-bound %.3f", stallMem, stallCmp)
	}
	if stallMem < 0.3 {
		t.Errorf("memory-bound stall fraction %.3f implausibly low", stallMem)
	}
}

func TestIPSPlausibleMagnitude(t *testing.T) {
	// A compute-bound thread at 4 GHz with CPI 0.8 must execute a few
	// billion instructions per second.
	m, fp := testPerf(t, 4, 4)
	ips := m.IPS(computeBound, fp.ID(1, 1), 4e9)
	if ips < 1e9 || ips > 6e9 {
		t.Errorf("IPS = %g, want O(10⁹)", ips)
	}
}

func TestTimePerInstrPanicsOnZeroFreq(t *testing.T) {
	m, _ := testPerf(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("zero frequency accepted")
		}
	}()
	m.TimePerInstr(computeBound, 0, 0)
}

// Property: IPS increases with frequency, and EffectiveCPI never drops below
// BaseCPI.
func TestPropIPSMonotoneAndCPIBounded(t *testing.T) {
	m, fp := testPerf(t, 4, 4)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Params{BaseCPI: 0.5 + r.Float64()*2, MPKI: r.Float64() * 30}
		core := r.Intn(fp.NumCores())
		f1 := 1e9 + r.Float64()*2e9
		f2 := f1 + r.Float64()*1e9
		if m.IPS(p, core, f2) < m.IPS(p, core, f1) {
			return false
		}
		return m.EffectiveCPI(p, core, f1) >= p.BaseCPI-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: SlowdownAt(fMax) = 1 and slowdown ≥ 1 below fMax.
func TestPropSlowdownBounds(t *testing.T) {
	m, fp := testPerf(t, 4, 4)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Params{BaseCPI: 0.5 + r.Float64()*2, MPKI: r.Float64() * 30}
		core := r.Intn(fp.NumCores())
		fq := 1e9 + r.Float64()*3e9
		atMax := m.SlowdownAt(p, core, 4e9, 4e9)
		below := m.SlowdownAt(p, core, fq, 4e9)
		return math.Abs(atMax-1) < 1e-12 && below >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDRAMPenaltySlowsMissingWorkloads(t *testing.T) {
	fp := floorplan.MustNew(8, 8, 0.0009)
	net, _ := noc.New(fp, noc.DefaultConfig())
	noDram, err := New(net, DefaultBankAccess)
	if err != nil {
		t.Fatal(err)
	}
	withDram, err := NewWithDRAM(net, DefaultBankAccess, DefaultDRAMLatency)
	if err != nil {
		t.Fatal(err)
	}
	missing := Params{BaseCPI: 1.2, MPKI: 25, LLCMissRatio: 0.3}
	resident := Params{BaseCPI: 1.2, MPKI: 25, LLCMissRatio: 0}
	core := fp.ID(3, 3)
	if withDram.IPS(missing, core, 4e9) >= noDram.IPS(missing, core, 4e9) {
		t.Error("DRAM penalty did not slow a missing workload")
	}
	if withDram.IPS(resident, core, 4e9) != noDram.IPS(resident, core, 4e9) {
		t.Error("cache-resident workload affected by DRAM latency")
	}
}

func TestNewWithDRAMValidation(t *testing.T) {
	fp := floorplan.MustNew(2, 2, 0.0009)
	net, _ := noc.New(fp, noc.DefaultConfig())
	if _, err := NewWithDRAM(net, 1e-9, -1); err == nil {
		t.Error("negative DRAM latency accepted")
	}
	if err := (Params{BaseCPI: 1, MPKI: 1, LLCMissRatio: 1.5}).Validate(); err == nil {
		t.Error("miss ratio > 1 accepted")
	}
}

func TestContentionFactorProperties(t *testing.T) {
	if got := ContentionFactor(0); got != 1 {
		t.Errorf("factor(0) = %v", got)
	}
	if got := ContentionFactor(0.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("factor(0.5) = %v, want 2", got)
	}
	if got := ContentionFactor(-1); got != 1 {
		t.Errorf("factor(-1) = %v", got)
	}
	// Clamped at ρ=0.95 → 20×.
	if got := ContentionFactor(2); math.Abs(got-20) > 1e-9 {
		t.Errorf("factor(overload) = %v, want 20", got)
	}
	// Monotone.
	prev := 0.0
	for rho := 0.0; rho < 1.0; rho += 0.05 {
		f := ContentionFactor(rho)
		if f < prev {
			t.Fatalf("factor not monotone at ρ=%v", rho)
		}
		prev = f
	}
}
