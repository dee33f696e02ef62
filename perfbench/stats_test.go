package main

import (
	"math"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	v, pct, n, ok := tail(xs)
	if !ok || n != 100 {
		t.Fatalf("tail ok=%v n=%d", ok, n)
	}
	if v != 90 || pct != 90 {
		t.Fatalf("tail = %g at p%g, want 90 at p90", v, pct)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if _, _, _, ok := tail(xs[:10]); ok {
		t.Fatal("ten samples cannot have a tail with ten beyond it")
	}
	if v, pct, _, ok := tail(xs[:11]); !ok || v != 90 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Fatalf("eleven samples: tail %g at p%g ok=%v, want their minimum", v, pct, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4)[0] and [2], as Python computes them.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 || median([]float64{3, 1, 2}) != 2 {
		t.Error("median of even or odd counts is wrong")
	}
}

func TestClaimNeedsNineOfTenPairsAndAGapBeyondTheSpread(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	better := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	if wins, ok := claimHolds(parent, better, true); !ok || wins != 10 {
		t.Fatalf("clear gain: wins=%d ok=%v", wins, ok)
	}
	nine := append([]float64(nil), better...)
	nine[0] = 100 // a tie counts for neither side
	if wins, ok := claimHolds(parent, nine, true); !ok || wins != 9 {
		t.Fatalf("nine wins: wins=%d ok=%v", wins, ok)
	}
	eight := append([]float64(nil), nine...)
	eight[1] = 120
	if wins, ok := claimHolds(parent, eight, true); ok || wins != 8 {
		t.Fatalf("eight wins must not hold: wins=%d ok=%v", wins, ok)
	}
	// Winning every pair by less than the parent's own spread is no claim.
	tiny := make([]float64, len(parent))
	for i, p := range parent {
		tiny[i] = p - 0.5
	}
	if _, ok := claimHolds(parent, tiny, true); ok {
		t.Fatal("a gain inside the parent's interquartile spread must not hold")
	}
	if _, ok := claimHolds(better, parent, false); !ok {
		t.Fatal("a throughput gain is not recognised")
	}
	if _, ok := claimHolds(parent, better, false); ok {
		t.Fatal("a loss must not hold as a higher-is-better gain")
	}
}

func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const stall = 60 * time.Millisecond
	// Five requests due 5 ms apart on one connection; the first stalls.
	dues := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond, 20 * time.Millisecond}
	out := runOpenLoop(dues, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(out) != len(dues) {
		t.Fatalf("%d results, want %d", len(out), len(dues))
	}
	if out[0].Latency < stall {
		t.Errorf("stalled request latency %v, want at least %v", out[0].Latency, stall)
	}
	for i := 1; i < len(out); i++ {
		r := out[i]
		// Latency counts from the due time, so a queued request is charged
		// the part of the stall that outlasted its due time.
		if want := stall - dues[i]; r.Latency < want {
			t.Errorf("request %d latency %v, want at least %v (its wait behind the stall)", i, r.Latency, want)
		}
		if r.Sent < stall {
			t.Errorf("request %d sent at %v, before the stall ended", i, r.Sent)
		}
		if r.Late > 20*time.Millisecond {
			t.Errorf("request %d released %v late: the generator must not wait for a busy connection", i, r.Late)
		}
	}
}
