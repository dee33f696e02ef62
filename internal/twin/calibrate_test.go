package twin

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The calibration pipeline is differentially tested against the real
// simulator by the root package (twin_diff_test.go). Here we test it against
// a synthetic ground truth that is *exactly* linear in the twin's regressors:
// FitBucket must recover it to numerical precision, held-out predictions must
// land inside the published bounds, and every rejection branch must fire on
// malformed input.

const synthW, synthH = 3, 3 // 9 cores, kernelDim = 7

// The synthetic truth: a spatial kernel (distances 0..4 plus the two
// edge-correction terms) and linear coefficients over the package's own
// feature vectors. Values are arbitrary but physically-shaped (decaying
// kernel, positive responses).
var (
	synthKernel = []float64{2.0, 0.8, 0.3, 0.12, 0.05, 0.4, 0.02}
	synthTrans  = []float64{0.5, 0.3, 0.2, 0.35, 0.15}
	synthMake   = []float64{0.002, 1.1}
	synthRing   = []float64{0.2, 0.9, 0.05, 0.3, 0.2, 0.15, 0.1}
)

// synthRise evaluates the synthetic kernel at core i — the same feature
// construction fitKernel regresses on.
func synthRise(p []float64, i int) float64 {
	total := totalPower(p)
	sum := 0.0
	for j := range p {
		sum += synthKernel[manhattan(synthW, i, j)] * p[j]
	}
	e := float64(missingNeighbors(synthW, synthH, i))
	return sum + e*(synthKernel[5]*p[i]+synthKernel[6]*total)
}

// synthSteadyPeak is the SteadyPeakFunc of the synthetic substrate.
func synthSteadyPeak(p []float64) float64 {
	peak := math.Inf(-1)
	for i := range p {
		if r := synthRise(p, i); r > peak {
			peak = r
		}
	}
	return peak
}

const synthAmbient = 45.0

// synthSample draws one calibration point whose observation is the exact
// synthetic truth — zero model error by construction.
func synthSample(rng *rand.Rand) Sample {
	n := synthW * synthH
	c := Case{
		Width: synthW, Height: synthH, Ambient: synthAmbient,
		HotPower: make([]float64, n),
		AvgPower: make([]float64, n),
	}
	for i := range c.HotPower {
		c.HotPower[i] = 0.5 + 2.5*rng.Float64()
		c.AvgPower[i] = c.HotPower[i] * (0.3 + 0.6*rng.Float64())
	}
	c.SteadyHotDeltaC = synthSteadyPeak(c.HotPower)
	c.SteadyAvgDeltaC = synthSteadyPeak(c.AvgPower)
	c.Horizon = 0.005 + 2*rng.Float64()
	c.RawMakespan = c.Horizon * (0.8 + 0.2*rng.Float64())

	temps := make([]float64, n)
	peak := math.Inf(-1)
	for i := range temps {
		temps[i] = synthAmbient + synthRise(c.HotPower, i)
		if temps[i] > peak {
			peak = temps[i]
		}
	}
	var tx [transientDim]float64
	transientFeatures(tx[:], c)
	var mx [makespanDim]float64
	makespanFeatures(mx[:], c)
	return Sample{
		Case: c,
		Obs: Observation{
			SteadyTemps:    temps,
			SteadyPeakC:    peak,
			TransientPeakC: synthAmbient + dot(synthTrans, tx[:]),
			MakespanS:      dot(synthMake, mx[:]),
		},
	}
}

// synthRingSample draws one ring point with the exact synthetic anchors and
// an exactly-linear peak.
func synthRingSample(rng *rand.Rand) RingSample {
	n := synthW * synthH
	c := RingCase{
		Width: synthW, Height: synthH, Ambient: synthAmbient,
		Tau:  1e-4 + 3.9e-3*rng.Float64(),
		Base: make([]float64, n),
	}
	for i := range c.Base {
		c.Base[i] = 0.2 + 0.8*rng.Float64()
	}
	delta := 3 + rng.Intn(3)
	perm := rng.Perm(n)
	c.RingCores = perm[:delta]
	c.SlotWatts = make([]float64, delta)
	for i := range c.SlotWatts {
		c.SlotWatts[i] = 1 + 4*rng.Float64()
	}
	field := make([]float64, n)
	c.SteadyMaxDeltaC = MaxInstantSteadyDelta(field, c.Base, c.RingCores, c.SlotWatts, synthSteadyPeak)
	copy(field, c.Base)
	mean := 0.0
	for _, w := range c.SlotWatts {
		mean += w
	}
	mean /= float64(delta)
	for _, core := range c.RingCores {
		field[core] = mean
	}
	c.SteadyFieldDeltaC = synthSteadyPeak(field)

	var x [ringDim]float64
	ringFeaturesInto(x[:], field, c)
	return RingSample{Case: c, PeakC: synthAmbient + dot(synthRing, x[:])}
}

func synthSets(seed int64, samples, rings int) ([]Sample, []RingSample) {
	rng := rand.New(rand.NewSource(seed))
	ss := make([]Sample, samples)
	for i := range ss {
		ss[i] = synthSample(rng)
	}
	rs := make([]RingSample, rings)
	for i := range rs {
		rs[i] = synthRingSample(rng)
	}
	return ss, rs
}

// synthBucket is a fitted bucket over the synthetic truth, shared by tests.
func synthBucket(t *testing.T) BucketModel {
	t.Helper()
	samples, rings := synthSets(1, 64, 64)
	b, err := FitBucket(synthW, synthH, synthAmbient, samples, rings)
	if err != nil {
		t.Fatalf("FitBucket on exact synthetic data: %v", err)
	}
	return b
}

func synthModel(t *testing.T) *Model {
	t.Helper()
	m := &Model{
		Version: ModelVersion,
		Seed:    1,
		Buckets: map[string]BucketModel{BucketKey(synthW, synthH): synthBucket(t)},
	}
	hash, err := m.ComputeHash()
	if err != nil {
		t.Fatalf("ComputeHash: %v", err)
	}
	m.Hash = hash
	return m
}

func TestFitBucketRecoversSyntheticTruth(t *testing.T) {
	b := synthBucket(t)
	if b.Samples != 64 || b.RingSamples != 64 {
		t.Errorf("bucket records %d/%d samples, want 64/64", b.Samples, b.RingSamples)
	}
	if b.MinTotalW >= b.MaxTotalW || !(b.MaxTauS > 0) {
		t.Errorf("degenerate envelope: W [%g, %g], tau %g", b.MinTotalW, b.MaxTotalW, b.MaxTauS)
	}

	// The truth is exactly linear in the regressors, so the held-out
	// residuals are numerical noise and every published bound collapses to
	// its floor + penalty. If a bound is far above the floor the fit failed
	// to recover the truth.
	if b.SteadyBoundC > steadyFloorC+1 {
		t.Errorf("steady bound %g did not collapse toward the %g floor", b.SteadyBoundC, steadyFloorC)
	}
	if b.Transient.Bound > transFloorC+1 {
		t.Errorf("transient bound %g did not collapse toward the %g floor", b.Transient.Bound, transFloorC)
	}
	if b.Makespan.Bound > 0.2 {
		t.Errorf("makespan bound %g did not collapse toward its floor", b.Makespan.Bound)
	}
	if b.Ring.Bound > ringFloorC+1 {
		t.Errorf("ring bound %g did not collapse toward the %g floor", b.Ring.Bound, ringFloorC)
	}

	// Held-out cases from a fresh stream: every estimate within its bound.
	m := synthModel(t)
	if err := m.Validate(); err != nil {
		t.Fatalf("fitted model does not validate: %v", err)
	}
	fresh, _ := synthSets(99, 50, 0)
	for i, s := range fresh {
		pred, err := m.Predict(s.Case)
		if err != nil {
			t.Fatalf("Predict on held-out case %d: %v", i, err)
		}
		if d := math.Abs(pred.SteadyPeakC.Estimate - s.Obs.SteadyPeakC); d > pred.SteadyPeakC.Bound {
			t.Errorf("case %d: steady |err| %g > bound %g", i, d, pred.SteadyPeakC.Bound)
		}
		if d := math.Abs(pred.TransientPeakC.Estimate - s.Obs.TransientPeakC); d > pred.TransientPeakC.Bound {
			t.Errorf("case %d: transient |err| %g > bound %g", i, d, pred.TransientPeakC.Bound)
		}
		if d := math.Abs(pred.MakespanS.Estimate - s.Obs.MakespanS); d > pred.MakespanS.Bound {
			t.Errorf("case %d: makespan |err| %g > bound %g", i, d, pred.MakespanS.Bound)
		}
	}
}

// TestRingEstimatorSyntheticBoundHolds evaluates the fitted ring model on
// held-out ring cases from a fresh stream: every estimate must lie within
// the published ring bound.
func TestRingEstimatorSyntheticBoundHolds(t *testing.T) {
	b := synthBucket(t)
	if !(b.Ring.Bound > 0) {
		t.Fatalf("ring bound %g, want > 0", b.Ring.Bound)
	}
	_, fresh := synthSets(77, 0, 100)
	var x [ringDim]float64
	field := make([]float64, synthW*synthH)
	for i, r := range fresh {
		ringFeaturesInto(x[:], field, r.Case)
		if d := math.Abs(b.Ambient + dot(b.Ring.Coef, x[:]) - r.PeakC); d > b.Ring.Bound {
			t.Errorf("case %d: ring |err| %g > bound %g", i, d, b.Ring.Bound)
		}
	}
}

func TestFitBucketRejectsMalformedInput(t *testing.T) {
	samples, rings := synthSets(1, 64, 64)

	// Deep-enough copies that per-case mutation cannot leak across subtests.
	cloneSamples := func() []Sample {
		out := make([]Sample, len(samples))
		copy(out, samples)
		return out
	}
	cloneRings := func() []RingSample {
		out := make([]RingSample, len(rings))
		copy(out, rings)
		return out
	}

	cases := []struct {
		name    string
		mutate  func(ss []Sample, rs []RingSample) ([]Sample, []RingSample)
		w, h    int
		wantErr string
	}{
		{"invalid grid", nil, 0, 3, "invalid bucket grid"},
		{"too few samples", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			return ss[:32], rs
		}, synthW, synthH, "needs at least"},
		{"too few ring samples", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			return ss, rs[:32]
		}, synthW, synthH, "ring samples"},
		{"invalid case", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			ss[3].Case.Horizon = 0
			return ss, rs
		}, synthW, synthH, "horizon"},
		{"sample grid mismatch", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			ss[5].Case.Width, ss[5].Case.Height = 4, 4
			ss[5].Case.HotPower = make([]float64, 16)
			ss[5].Case.AvgPower = make([]float64, 16)
			return ss, rs
		}, synthW, synthH, "bucket is"},
		{"short steady temps", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			ss[7].Obs.SteadyTemps = ss[7].Obs.SteadyTemps[:4]
			return ss, rs
		}, synthW, synthH, "steady temps"},
		{"ring grid mismatch", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			rs[2].Case.Width = 4
			return ss, rs
		}, synthW, synthH, "bucket is"},
		{"ring base length", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			rs[4].Case.Base = rs[4].Case.Base[:5]
			return ss, rs
		}, synthW, synthH, "base has"},
		{"ring slot mismatch", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			rs[6].Case.SlotWatts = rs[6].Case.SlotWatts[:1]
			return ss, rs
		}, synthW, synthH, "slots for"},
		{"ring NaN field anchor", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			rs[8].Case.SteadyFieldDeltaC = math.NaN()
			return ss, rs
		}, synthW, synthH, "steady field delta"},
		{"ring negative max anchor", func(ss []Sample, rs []RingSample) ([]Sample, []RingSample) {
			rs[9].Case.SteadyMaxDeltaC = -1
			return ss, rs
		}, synthW, synthH, "steady max delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ss, rs := cloneSamples(), cloneRings()
			if tc.mutate != nil {
				// Mutations touch value copies inside the slices; re-clone
				// the mutated element's inner state only via the mutator.
				ss, rs = tc.mutate(ss, rs)
			}
			_, err := FitBucket(tc.w, tc.h, synthAmbient, ss, rs)
			if err == nil {
				t.Fatalf("FitBucket accepted %s", tc.name)
			}
		})
	}
}

func TestMaxInstantSteadyDelta(t *testing.T) {
	// Two slots rotating over cores {0, 2} with an asymmetric solve: the
	// maximum over both offsets must be returned.
	base := []float64{0, 0, 0, 0}
	ring := []int{0, 2}
	slots := []float64{5, 1}
	solve := func(f []float64) float64 { return f[0] + 0.1*f[2] }
	field := make([]float64, 4)
	// offset 0: core0=5, core2=1 → 5.1; offset 1: core0=1, core2=5 → 1.5.
	if got := MaxInstantSteadyDelta(field, base, ring, slots, solve); math.Abs(got-5.1) > 1e-12 {
		t.Errorf("MaxInstantSteadyDelta = %g, want 5.1", got)
	}
}

func TestLoadFile(t *testing.T) {
	m := testModel(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if back.Hash != m.Hash {
		t.Errorf("LoadFile changed the hash: %s vs %s", back.Hash, m.Hash)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadFile answered for a missing file")
	}
	bad := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Error("LoadFile accepted a truncated artifact")
	}
}

func TestCaseValidate(t *testing.T) {
	valid := func() Case {
		return Case{
			Width: 2, Height: 2, Ambient: 45,
			HotPower:        []float64{1, 1, 1, 1},
			AvgPower:        []float64{1, 1, 1, 1},
			SteadyHotDeltaC: 1, SteadyAvgDeltaC: 1,
			Horizon: 0.1, RawMakespan: 0.1,
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid case rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Case)
	}{
		{"zero width", func(c *Case) { c.Width = 0 }},
		{"hot power length", func(c *Case) { c.HotPower = c.HotPower[:3] }},
		{"avg power length", func(c *Case) { c.AvgPower = c.AvgPower[:3] }},
		{"zero horizon", func(c *Case) { c.Horizon = 0 }},
		{"infinite horizon", func(c *Case) { c.Horizon = math.Inf(1) }},
		{"NaN steady hot", func(c *Case) { c.SteadyHotDeltaC = math.NaN() }},
		{"negative steady avg", func(c *Case) { c.SteadyAvgDeltaC = -1 }},
		{"zero makespan", func(c *Case) { c.RawMakespan = 0 }},
		{"negative hot power", func(c *Case) { c.HotPower[2] = -1 }},
		{"NaN avg power", func(c *Case) { c.AvgPower[1] = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid()
			tc.mutate(&c)
			if c.Validate() == nil {
				t.Errorf("Validate accepted a case with %s", tc.name)
			}
		})
	}
}

func TestBucketValidateRejects(t *testing.T) {
	base := testModel(t).Buckets[BucketKey(2, 2)]
	key := BucketKey(2, 2)
	if err := base.validate(key); err != nil {
		t.Fatalf("baseline bucket rejected: %v", err)
	}
	cases := []struct {
		name   string
		key    string
		mutate func(*BucketModel)
	}{
		{"invalid grid", key, func(b *BucketModel) { b.Width = 0 }},
		{"key mismatch", "8x8", func(b *BucketModel) {}},
		{"kernel length", key, func(b *BucketModel) { b.Kernel = b.Kernel[:2] }},
		{"NaN kernel", key, func(b *BucketModel) { b.Kernel = []float64{1, 0.5, 0.25, 0.1, math.NaN()} }},
		{"NaN ambient", key, func(b *BucketModel) { b.Ambient = math.NaN() }},
		{"zero steady bound", key, func(b *BucketModel) { b.SteadyBoundC = 0 }},
		{"transient coef length", key, func(b *BucketModel) { b.Transient.Coef = b.Transient.Coef[:2] }},
		{"NaN transient coef", key, func(b *BucketModel) {
			b.Transient.Coef = []float64{math.Inf(1), 1, 0.2, 0.3, 0.4}
		}},
		{"zero makespan bound", key, func(b *BucketModel) { b.Makespan.Bound = 0 }},
		{"infinite ring bound", key, func(b *BucketModel) { b.Ring.Bound = math.Inf(1) }},
		{"no samples", key, func(b *BucketModel) { b.Samples = 0 }},
		{"inverted power envelope", key, func(b *BucketModel) { b.MinTotalW, b.MaxTotalW = 10, 1 }},
		{"zero max tau", key, func(b *BucketModel) { b.MaxTauS = 0 }},
		{"NaN ring envelope", key, func(b *BucketModel) { b.RingMinW = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := base
			b.Kernel = append([]float64(nil), base.Kernel...)
			b.Transient.Coef = append([]float64(nil), base.Transient.Coef...)
			tc.mutate(&b)
			if b.validate(tc.key) == nil {
				t.Errorf("validate accepted a bucket with %s", tc.name)
			}
		})
	}
}
