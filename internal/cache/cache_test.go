package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/noc"
)

func testHierarchy(t testing.TB, w, h int) *Hierarchy {
	t.Helper()
	fp := floorplan.MustNew(w, h, 0.0009)
	net, err := noc.New(fp, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hier, err := New(net, fp.NumCores(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return hier
}

func TestNewValidation(t *testing.T) {
	fp := floorplan.MustNew(2, 2, 0.0009)
	net, _ := noc.New(fp, noc.DefaultConfig())
	bad := []Config{
		{L1IKB: 0, L1DKB: 16, LLCPerCoreKB: 128, BlockBytes: 64},
		{L1IKB: 16, L1DKB: 16, LLCPerCoreKB: 0, BlockBytes: 64},
		{L1IKB: 16, L1DKB: 16, LLCPerCoreKB: 128, BlockBytes: 0},
		func() Config { c := DefaultConfig(); c.DirtyFraction = 1.5; return c }(),
		func() Config { c := DefaultConfig(); c.WarmFraction = -0.1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(net, 4, cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := New(net, 0, DefaultConfig()); err == nil {
		t.Error("expected error for zero cores")
	}
}

func TestHomeBankInterleaves(t *testing.T) {
	h := testHierarchy(t, 4, 4)
	// Consecutive lines (64 B apart) land on consecutive banks.
	for line := 0; line < 32; line++ {
		addr := uint64(line * 64)
		if got, want := h.HomeBank(addr), line%16; got != want {
			t.Fatalf("HomeBank(line %d) = %d, want %d", line, got, want)
		}
	}
}

func TestHomeBankSameLineSameBank(t *testing.T) {
	h := testHierarchy(t, 4, 4)
	// All addresses within one 64 B line map to the same bank.
	base := uint64(4096)
	want := h.HomeBank(base)
	for off := uint64(0); off < 64; off++ {
		if got := h.HomeBank(base + off); got != want {
			t.Fatalf("HomeBank(base+%d) = %d, want %d", off, got, want)
		}
	}
}

func TestPrivateLinesTableI(t *testing.T) {
	// Table I: 16+16 KB of private L1 at 64 B lines = 512 lines.
	h := testHierarchy(t, 4, 4)
	if got := h.PrivateLines(); got != 512 {
		t.Errorf("PrivateLines = %d, want 512", got)
	}
}

func TestMigrationPenaltyPositiveAndSmall(t *testing.T) {
	// The observation motivating the paper: S-NUCA migration costs tens of
	// microseconds, far below a 0.5 ms rotation epoch.
	h := testHierarchy(t, 8, 8)
	p := h.MigrationPenalty(0, 63)
	if p <= 0 {
		t.Fatalf("penalty = %v, want > 0", p)
	}
	if p >= 0.5e-3 {
		t.Fatalf("penalty %v s not small relative to 0.5 ms epoch", p)
	}
	if p < 1e-6 {
		t.Fatalf("penalty %v s implausibly small (< 1 µs)", p)
	}
}

func TestMigrationPenaltyGrowsWithAMD(t *testing.T) {
	// Migrating to a high-AMD (corner) core costs more refill time than to a
	// low-AMD (centre) core.
	h := testHierarchy(t, 8, 8)
	fp := floorplan.MustNew(8, 8, 0.0009)
	center := fp.ID(3, 3)
	corner := fp.ID(0, 0)
	src := fp.ID(4, 4)
	if h.MigrationPenalty(src, corner) <= h.MigrationPenalty(src, center) {
		t.Errorf("penalty to corner %v not > penalty to centre %v",
			h.MigrationPenalty(src, corner), h.MigrationPenalty(src, center))
	}
}

func TestMigrationPenaltyMatrixDiagonalZero(t *testing.T) {
	h := testHierarchy(t, 4, 4)
	for i := 0; i < 16; i++ {
		if p := h.MigrationPenalty(i, i); p != 0 {
			t.Fatalf("self-migration penalty [%d][%d] = %v, want 0", i, i, p)
		}
		for j := 0; j < 16; j++ {
			if p := h.MigrationPenalty(i, j); i != j && p <= 0 {
				t.Fatalf("penalty [%d][%d] = %v, want > 0", i, j, p)
			}
		}
	}
}

// Property: HomeBank is total and uniform-ish — every bank owns at least one
// of the first n consecutive lines.
func TestPropHomeBankCoversAllBanks(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 2 + r.Intn(6)
		fp := floorplan.MustNew(w, w, 0.0009)
		net, err := noc.New(fp, noc.DefaultConfig())
		if err != nil {
			return false
		}
		h, err := New(net, fp.NumCores(), DefaultConfig())
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for line := 0; line < fp.NumCores(); line++ {
			b := h.HomeBank(uint64(line) * 64)
			if b < 0 || b >= fp.NumCores() {
				return false
			}
			seen[b] = true
		}
		return len(seen) == fp.NumCores()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: migration penalty scales monotonically with the dirty and warm
// fractions.
func TestPropPenaltyMonotoneInFractions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fp := floorplan.MustNew(4, 4, 0.0009)
		net, err := noc.New(fp, noc.DefaultConfig())
		if err != nil {
			return false
		}
		lo := DefaultConfig()
		hi := DefaultConfig()
		lo.DirtyFraction = r.Float64() * 0.5
		hi.DirtyFraction = lo.DirtyFraction + 0.3
		lo.WarmFraction = r.Float64() * 0.5
		hi.WarmFraction = lo.WarmFraction + 0.3
		hl, err1 := New(net, 16, lo)
		hh, err2 := New(net, 16, hi)
		if err1 != nil || err2 != nil {
			return false
		}
		src := r.Intn(16)
		dst := r.Intn(16)
		if src == dst {
			return true
		}
		return hh.MigrationPenalty(src, dst) > hl.MigrationPenalty(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOSOverheadValidationAndEffect(t *testing.T) {
	fp := floorplan.MustNew(4, 4, 0.0009)
	net, _ := noc.New(fp, noc.DefaultConfig())
	bad := DefaultConfig()
	bad.OSOverhead = -1e-6
	if _, err := New(net, 16, bad); err == nil {
		t.Error("expected error for negative OS overhead")
	}
	lo := DefaultConfig()
	lo.OSOverhead = 0
	hi := DefaultConfig()
	hi.OSOverhead = 50e-6
	hl, _ := New(net, 16, lo)
	hh, _ := New(net, 16, hi)
	if hh.MigrationPenalty(0, 5)-hl.MigrationPenalty(0, 5) < 49e-6 {
		t.Error("OS overhead not reflected in migration penalty")
	}
}

func TestMigrationPenaltyOrderOfMagnitude(t *testing.T) {
	// Paper Fig. 2(c): rotation at 0.5 ms epochs costs ~8% — roughly 40 µs
	// per migration. Our default model must land in the same decade.
	h := testHierarchy(t, 4, 4)
	p := h.MigrationPenalty(5, 6)
	if p < 10e-6 || p > 100e-6 {
		t.Errorf("penalty = %v s, want within 10–100 µs", p)
	}
}
