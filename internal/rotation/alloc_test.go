package rotation

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/thermal"
)

// The ring scan runs once per HotPotato decision per candidate ring — the
// scheduler's inner loop. After the evaluator's scratch has warmed up for a
// ring size, an evaluation must allocate nothing.
func TestPeakRingRotationZeroAllocsAfterWarmup(t *testing.T) {
	c := newCalc(t, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(64, 0.5)
	ring := []int{27, 28, 36, 35}
	slotWatts := []float64{9, 0.3, 7, 0.3}
	// AllocsPerRun's warm-up call grows the per-size scratch rows.
	a := testing.AllocsPerRun(50, func() {
		if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
			t.Fatal(err)
		}
	})
	if a != 0 {
		t.Errorf("PeakRingRotation allocates %v per run after warmup, want 0", a)
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

func BenchmarkHotloopRingScan(b *testing.B) {
	c := newCalc(b, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(64, 0.5)
	ring := []int{27, 28, 36, 35, 34, 26}
	slotWatts := []float64{9, 0.3, 7, 0.3, 6, 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotloopRingScanSparse is the same six-core ring scan on a 16×16
// chip, where auto solver selection goes sparse: with no eigenbasis, each
// evaluation solves the periodic steady state by preconditioned conjugate
// gradients over the Krylov period propagator (periodic.go).
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
