package hotpotato

// twin_diff_test.go is the simulator-as-oracle validation harness of the
// analytical twin (docs/THEORY.md §"Surrogate model and error bounds"): the
// committed TWIN_model.json artifact is checked against the full simulator on
// hundreds of held-out random cases, and the calibration's determinism and
// bound-monotonicity contracts are pinned. The design-grid generator
// twinDesignSpec doubles as the held-out case generator at seeds disjoint
// from every calibration stream.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/twin"
)

// committedTwinHash pins the committed calibration artifact: regenerating it
// with `hotpotato-sim -calibrate TWIN_model.json` must reproduce these bytes
// exactly (TestTwinCalibrationDeterministic proves it from scratch).
const committedTwinHash = "sha256:6e1d41d6baccfdc6d194901735c8546da5fd6a245c3824a052db8338af67364a"

// committedTwin loads the checked-in artifact the server ships with.
func committedTwin(t *testing.T) *TwinModel {
	t.Helper()
	model, err := LoadTwinModelFile("TWIN_model.json")
	if err != nil {
		t.Fatalf("loading committed TWIN_model.json: %v", err)
	}
	return model
}

func TestTwinArtifactPinned(t *testing.T) {
	model := committedTwin(t)
	if model.Hash != committedTwinHash {
		t.Fatalf("committed artifact hash = %s, want %s (recalibrate and update the pin only with the model change that justifies it)",
			model.Hash, committedTwinHash)
	}
	// LoadFile already verified hash integrity; re-derive it anyway so the
	// pin covers ComputeHash itself.
	recomputed, err := model.ComputeHash()
	if err != nil {
		t.Fatalf("ComputeHash: %v", err)
	}
	if recomputed != model.Hash {
		t.Fatalf("recomputed hash %s != embedded %s", recomputed, model.Hash)
	}
	for _, wh := range DefaultTwinCalibration().Buckets {
		if _, ok := model.Buckets[twin.BucketKey(wh[0], wh[1])]; !ok {
			t.Errorf("committed artifact lacks the default %dx%d bucket", wh[0], wh[1])
		}
	}
}

// TestTwinDifferential is the error-contract property suite: ≥200 seeded
// random in-domain cases across the calibrated 4×4 and 8×8 buckets, each
// simulated end-to-end, asserting per conclusive field
// |twin − simulator| ≤ bound. The held-out seeds are disjoint from the
// calibration streams (bucketSeed and bucketSeed+7919 for seed 1).
func TestTwinDifferential(t *testing.T) {
	model := committedTwin(t)
	ctx := context.Background()

	buckets := []struct {
		w, h  int
		cases int
		seed  int64
	}{
		{4, 4, 140, 42_0001},
		{8, 8, 70, 42_0002},
	}
	totalCases := 0
	for _, bk := range buckets {
		bk := bk
		t.Run(twin.BucketKey(bk.w, bk.h), func(t *testing.T) {
			plat, err := NewPlatform(bk.w, bk.h)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(bk.seed))
			var steadyOK, transOK, makeOK int
			for i := 0; i < bk.cases; i++ {
				spec := twinDesignSpec(rng, bk.w, bk.h)
				s, err := twinOracleSample(ctx, plat, spec)
				if err != nil {
					t.Fatalf("case %d: oracle: %v", i, err)
				}
				pred, err := TwinPredict(model, plat, spec)
				if err != nil {
					t.Fatalf("case %d: TwinPredict on an in-domain spec: %v", i, err)
				}
				if f := pred.SteadyPeakC; f.Conclusive {
					steadyOK++
					if d := math.Abs(f.Estimate - s.Obs.SteadyPeakC); d > f.Bound {
						t.Errorf("case %d: steady |%g − %g| = %g exceeds bound %g",
							i, f.Estimate, s.Obs.SteadyPeakC, d, f.Bound)
					}
				}
				if f := pred.TransientPeakC; f.Conclusive {
					transOK++
					if d := math.Abs(f.Estimate - s.Obs.TransientPeakC); d > f.Bound {
						t.Errorf("case %d: transient |%g − %g| = %g exceeds bound %g",
							i, f.Estimate, s.Obs.TransientPeakC, d, f.Bound)
					}
				}
				if f := pred.MakespanS; f.Conclusive {
					makeOK++
					if d := math.Abs(f.Estimate - s.Obs.MakespanS); d > f.Bound {
						t.Errorf("case %d: makespan |%g − %g| = %g exceeds bound %g",
							i, f.Estimate, s.Obs.MakespanS, d, f.Bound)
					}
				}
			}
			// The generator draws from the calibration distribution, so the
			// envelope gate must keep most held-out cases conclusive — a twin
			// that answers nothing satisfies the bound vacuously.
			floor := bk.cases * 8 / 10
			if steadyOK < floor || transOK < floor || makeOK < floor {
				t.Errorf("conclusive counts steady=%d trans=%d makespan=%d below floor %d of %d",
					steadyOK, transOK, makeOK, floor, bk.cases)
			}
			t.Logf("%d cases: conclusive steady=%d trans=%d makespan=%d",
				bk.cases, steadyOK, transOK, makeOK)
		})
		totalCases += bk.cases
	}
	if totalCases < 200 {
		t.Fatalf("suite covers %d cases, issue requires ≥200", totalCases)
	}
}

// TestTwinBoundMonotonicity pins the calibration-density contract: along each
// sample axis the published bound is monotone non-increasing (denser
// calibration never loosens the bound), and — because the two oracle streams
// are independently seeded — growing one axis leaves the other axis's fits
// byte-identical.
func TestTwinBoundMonotonicity(t *testing.T) {
	ctx := context.Background()
	calibrate := func(samples, ringSamples int) twin.BucketModel {
		t.Helper()
		m, err := CalibrateTwin(ctx, TwinCalibration{
			Seed: 1, Samples: samples, RingSamples: ringSamples,
			Buckets: [][2]int{{4, 4}},
		})
		if err != nil {
			t.Fatalf("calibrate(%d,%d): %v", samples, ringSamples, err)
		}
		return m.Buckets[twin.BucketKey(4, 4)]
	}
	base := calibrate(64, 64)
	denser := calibrate(128, 64)
	ringDenser := calibrate(64, 128)

	// Samples axis: the full-simulation bounds may only tighten…
	if denser.SteadyBoundC > base.SteadyBoundC {
		t.Errorf("steady bound grew with density: %g → %g", base.SteadyBoundC, denser.SteadyBoundC)
	}
	if denser.Transient.Bound > base.Transient.Bound {
		t.Errorf("transient bound grew with density: %g → %g", base.Transient.Bound, denser.Transient.Bound)
	}
	if denser.Makespan.Bound > base.Makespan.Bound {
		t.Errorf("makespan bound grew with density: %g → %g", base.Makespan.Bound, denser.Makespan.Bound)
	}
	// …while the independently-seeded ring fit does not move at all.
	if denser.Ring.Bound != base.Ring.Bound {
		t.Errorf("ring bound moved with the Samples axis: %g → %g", base.Ring.Bound, denser.Ring.Bound)
	}

	// RingSamples axis: mirror image.
	if ringDenser.Ring.Bound > base.Ring.Bound {
		t.Errorf("ring bound grew with density: %g → %g", base.Ring.Bound, ringDenser.Ring.Bound)
	}
	if ringDenser.SteadyBoundC != base.SteadyBoundC ||
		ringDenser.Transient.Bound != base.Transient.Bound ||
		ringDenser.Makespan.Bound != base.Makespan.Bound {
		t.Errorf("full-simulation bounds moved with the RingSamples axis: (%g,%g,%g) → (%g,%g,%g)",
			base.SteadyBoundC, base.Transient.Bound, base.Makespan.Bound,
			ringDenser.SteadyBoundC, ringDenser.Transient.Bound, ringDenser.Makespan.Bound)
	}
}

// TestTwinCalibrationDeterministic regenerates the committed artifact from
// scratch and requires byte identity — calibration is a pure function of its
// parameters, across OSes and architectures.
func TestTwinCalibrationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating the default artifact simulates the full design grid")
	}
	model, err := CalibrateTwin(context.Background(), DefaultTwinCalibration())
	if err != nil {
		t.Fatal(err)
	}
	data, err := model.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("TWIN_model.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("regenerated artifact differs from committed TWIN_model.json (%d vs %d bytes)", len(data), len(want))
	}
	if model.Hash != committedTwinHash {
		t.Errorf("regenerated hash %s != pinned %s", model.Hash, committedTwinHash)
	}
}

// TestTwinPredictDeterministic pins response-level determinism: the same spec
// against the same artifact yields bit-identical predictions, which is what
// lets /v1/predict serve an ETag over (spec hash, model hash).
func TestTwinPredictDeterministic(t *testing.T) {
	model := committedTwin(t)
	plat, err := NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		spec := twinDesignSpec(rng, 4, 4)
		p1, err := TwinPredict(model, plat, spec)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := TwinPredict(model, plat, spec)
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := json.Marshal(p1)
		j2, _ := json.Marshal(p2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("case %d: repeated prediction differs:\n%s\n%s", i, j1, j2)
		}
	}
}
