package rotation

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/thermal"
)

// The ring scan runs once per HotPotato decision per candidate ring — the
// scheduler's inner loop. Once the evaluator has resolved the (ring, τ)
// table, an evaluation must allocate nothing, on either backend.
func TestPeakRingRotationZeroAllocsAfterWarmup(t *testing.T) {
	_, sparse := iterPair(t, 4, 4, thermal.DefaultConfig())
	for _, tc := range []struct {
		c    *Calculator
		ring []int
	}{{newCalc(t, 8, 8, thermal.DefaultConfig()), []int{27, 28, 36, 35}}, {sparse, []int{5, 6, 10, 9}}} {
		c, ring := tc.c, tc.ring
		ev := c.NewRingEvaluator()
		base := matrix.Constant(c.n, 0.5)
		slotWatts := []float64{9, 0.3, 7, 0.3}
		// AllocsPerRun's warm-up call builds and memoizes the table.
		a := testing.AllocsPerRun(50, func() {
			if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
				t.Fatal(err)
			}
		})
		if a != 0 {
			t.Errorf("PeakRingRotation (%s) allocates %v per run after warmup, want 0", c.m.Solver(), a)
		}
	}
}

// Scratch reuse across calls must not leak state between evaluations: the
// same inputs give the same answer before and after evaluating a different
// (larger, then smaller) ring.
func TestPeakRingRotationScratchReuseIsStateless(t *testing.T) {
	c := newCalc(t, 4, 4, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(16, 0.5)
	ringA := []int{5, 6, 10, 9}
	wattsA := []float64{9, 0.3, 7, 0.3}
	first, err := ev.PeakRingRotation(0.5e-3, base, ringA, wattsA)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	ringB := []int{0, 1, 2, 3, 7, 11, 15, 14}
	wattsB := make([]float64, len(ringB))
	for i := range wattsB {
		wattsB[i] = r.Float64() * 8
	}
	if _, err := ev.PeakRingRotation(1e-3, base, ringB, wattsB); err != nil {
		t.Fatal(err)
	}
	again, err := ev.PeakRingRotation(0.5e-3, base, ringA, wattsA)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("scratch reuse changed the answer: %.12f then %.12f", first, again)
	}
}

// --- hot-loop ring-scan baseline (make bench → BENCH_hotloop.json) ----------

// BenchmarkHotloopRingScan is one warm ring evaluation on the paper's 8×8
// chip: the (ring, τ) response table is built before the timer starts, as a
// scheduler finds it after its first decisions.
func BenchmarkHotloopRingScan(b *testing.B) {
	c := newCalc(b, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(64, 0.5)
	ring := []int{27, 28, 36, 35, 34, 26}
	slotWatts := []float64{9, 0.3, 7, 0.3, 6, 0.3}
	if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotloopRingScanUnsafe is BenchmarkHotloopRingScan asked, as
// HotPotato asks, only whether the ring stays under a limit — here one
// halfway between ambient and its peak, so the walk stops early.
func BenchmarkHotloopRingScanUnsafe(b *testing.B) {
	c := newCalc(b, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(64, 0.5)
	ring := []int{27, 28, 36, 35, 34, 26}
	slotWatts := []float64{9, 0.3, 7, 0.3, 6, 0.3}
	peak, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts)
	if err != nil {
		b.Fatal(err)
	}
	limit := (peak + c.m.Ambient()) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t, err := ev.PeakRingRotationUntil(0.5e-3, base, ring, slotWatts, limit); err != nil || t < limit {
			b.Fatal(t, err)
		}
	}
}

// BenchmarkHotloopRingScanSparse is the same six-core ring scan on a 16×16
// chip, where auto solver selection goes sparse. The table's one certified
// periodic solve (ringtable.go) runs before the timer starts; a warm
// evaluation is then the same lookup as on the dense backend.
func BenchmarkHotloopRingScanSparse(b *testing.B) {
	b.Run("16x16", func(b *testing.B) {
		c := newCalc(b, 16, 16, thermal.DefaultConfig())
		if !c.Iterative() {
			b.Fatal("a 16x16 chip must resolve to the sparse backend")
		}
		ev := c.NewRingEvaluator()
		base := matrix.Constant(256, 0.5)
		ring := []int{119, 120, 136, 135, 134, 118}
		slotWatts := []float64{9, 0.3, 7, 0.3, 6, 0.3}
		if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
