package twin

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// ModelVersion is the artifact wire version. Load rejects anything else, so
// a model from a future format fails loudly instead of being misread.
const ModelVersion = "twin-v1"

// envelopeSlack widens the calibration envelope when judging whether an
// input is close enough to the fitted domain for the bound to be evidence:
// totals up to 10% outside the calibrated range still count as conclusive.
const envelopeSlack = 0.10

// FieldModel is one fitted linear predictor: its coefficients and the
// conservative confidence bound that travels with every estimate (max
// calibration residual × safety + small-sample penalty; see calibrate.go).
type FieldModel struct {
	// Coef are the fitted regression coefficients.
	Coef []float64 `json:"coef"`
	// Bound is the conservative error bound (°C for temperatures, seconds
	// for the makespan).
	Bound float64 `json:"bound"`
}

// validate checks the field model against an expected regressor count.
func (f FieldModel) validate(name string, dim int) error {
	if len(f.Coef) != dim {
		return fmt.Errorf("twin: %s model has %d coefficients, want %d", name, len(f.Coef), dim)
	}
	for i, c := range f.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("twin: %s coefficient %d is not finite", name, i)
		}
	}
	if !(f.Bound > 0) || math.IsInf(f.Bound, 0) {
		return fmt.Errorf("twin: %s bound must be positive and finite, got %g", name, f.Bound)
	}
	return nil
}

// BucketModel is the fitted surrogate of one platform-size bucket (one grid
// geometry with the paper-default substrates). All bounds are per-bucket: a
// 4×4 estimate travels with the 4×4 calibration residuals, never the 8×8
// ones.
type BucketModel struct {
	// Width and Height are the bucket's core grid dimensions.
	Width  int `json:"width"`
	Height int `json:"height"`
	// Ambient is the ambient temperature the bucket was calibrated at (°C).
	Ambient float64 `json:"ambient"`
	// Kernel is the fitted spatial influence kernel (K/W): entries
	// 0..maxManhattan are indexed by Manhattan distance, followed by two
	// edge-correction coefficients (self power × missing neighbors, total
	// power × missing neighbors). The steady-state rise at core i is
	// Σ_j Kernel[d(i,j)]·p_j + e_i·(Kernel[D+1]·p_i + Kernel[D+2]·Σp),
	// where e_i counts i's off-die neighbors and D = maxManhattan.
	Kernel []float64 `json:"kernel"`
	// SteadyBoundC is the confidence bound of the steady-peak prediction.
	SteadyBoundC float64 `json:"steady_bound_c"`
	// Transient predicts the full run's peak temperature (bound in °C).
	Transient FieldModel `json:"transient"`
	// Makespan predicts the full run's makespan (bound in seconds).
	Makespan FieldModel `json:"makespan"`
	// Ring predicts the steady-periodic peak of a ring rotation (bound in
	// °C). It is calibrated and validated, but nothing evaluates it at run
	// time.
	Ring FieldModel `json:"ring"`
	// Samples and RingSamples record the calibration density behind the
	// published bounds.
	Samples     int `json:"samples"`
	RingSamples int `json:"ring_samples"`
	// MinTotalW and MaxTotalW are the calibration envelope on total chip
	// power (Σ HotPower): estimates for fields outside it (±10%) are marked
	// inconclusive because the bound is no longer evidence there.
	MinTotalW float64 `json:"min_total_w"`
	MaxTotalW float64 `json:"max_total_w"`
	// MaxTauS is the largest rotation epoch seen during ring calibration.
	MaxTauS float64 `json:"max_tau_s"`
	// RingMinW and RingMaxW are the ring calibration envelope on the
	// time-averaged total chip power of a rotation (background + mean slot
	// watts on the ring).
	RingMinW float64 `json:"ring_min_w"`
	RingMaxW float64 `json:"ring_max_w"`
}

// maxManhattan returns the largest Manhattan distance on a w×h grid.
func maxManhattan(w, h int) int { return (w - 1) + (h - 1) }

// kernelDim returns the kernel coefficient count on a w×h grid: one per
// Manhattan distance plus the two edge-correction terms.
func kernelDim(w, h int) int { return maxManhattan(w, h) + 3 }

// validate checks the bucket's structural and numeric invariants.
func (b BucketModel) validate(key string) error {
	if b.Width < 1 || b.Height < 1 {
		return fmt.Errorf("twin: bucket %q has invalid grid %dx%d", key, b.Width, b.Height)
	}
	if want := BucketKey(b.Width, b.Height); key != want {
		return fmt.Errorf("twin: bucket key %q does not match its %dx%d grid (want %q)", key, b.Width, b.Height, want)
	}
	if want := kernelDim(b.Width, b.Height); len(b.Kernel) != want {
		return fmt.Errorf("twin: bucket %q kernel has %d entries, want %d", key, len(b.Kernel), want)
	}
	for i, k := range b.Kernel {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return fmt.Errorf("twin: bucket %q kernel[%d] is not finite", key, i)
		}
	}
	if math.IsNaN(b.Ambient) || math.IsInf(b.Ambient, 0) {
		return fmt.Errorf("twin: bucket %q ambient is not finite", key)
	}
	if !(b.SteadyBoundC > 0) || math.IsInf(b.SteadyBoundC, 0) {
		return fmt.Errorf("twin: bucket %q steady bound must be positive and finite, got %g", key, b.SteadyBoundC)
	}
	if err := b.Transient.validate("transient", transientDim); err != nil {
		return fmt.Errorf("bucket %q: %w", key, err)
	}
	if err := b.Makespan.validate("makespan", makespanDim); err != nil {
		return fmt.Errorf("bucket %q: %w", key, err)
	}
	if err := b.Ring.validate("ring", ringDim); err != nil {
		return fmt.Errorf("bucket %q: %w", key, err)
	}
	if b.Samples < 1 || b.RingSamples < 1 {
		return fmt.Errorf("twin: bucket %q records no calibration samples", key)
	}
	if math.IsNaN(b.MinTotalW) || math.IsNaN(b.MaxTotalW) || b.MinTotalW > b.MaxTotalW {
		return fmt.Errorf("twin: bucket %q has invalid power envelope [%g, %g]", key, b.MinTotalW, b.MaxTotalW)
	}
	if !(b.MaxTauS > 0) || math.IsInf(b.MaxTauS, 0) {
		return fmt.Errorf("twin: bucket %q max tau must be positive and finite, got %g", key, b.MaxTauS)
	}
	if math.IsNaN(b.RingMinW) || math.IsNaN(b.RingMaxW) || b.RingMinW > b.RingMaxW {
		return fmt.Errorf("twin: bucket %q has invalid ring power envelope [%g, %g]", key, b.RingMinW, b.RingMaxW)
	}
	return nil
}

// steadyPeakDelta evaluates the kernel on a power field: the predicted
// steady-state rise (K) of the hottest core. Allocates nothing.
func (b *BucketModel) steadyPeakDelta(p []float64) float64 {
	n := b.Width * b.Height
	base := maxManhattan(b.Width, b.Height) + 1
	total := totalPower(p)
	peak := math.Inf(-1)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += b.Kernel[manhattan(b.Width, i, j)] * p[j]
		}
		if e := float64(missingNeighbors(b.Width, b.Height, i)); e != 0 {
			sum += e * (b.Kernel[base]*p[i] + b.Kernel[base+1]*total)
		}
		if sum > peak {
			peak = sum
		}
	}
	return peak
}

// inEnvelope reports whether a total chip power lies within the bucket's
// calibration envelope, widened by envelopeSlack.
func (b *BucketModel) inEnvelope(totalW float64) bool {
	lo := b.MinTotalW * (1 - envelopeSlack)
	hi := b.MaxTotalW * (1 + envelopeSlack)
	return totalW >= lo && totalW <= hi
}

// Model is the versioned calibration artifact: one fitted BucketModel per
// platform-size bucket plus the provenance (seed) and content hash that make
// it reproducible and tamper-evident. The committed artifact lives at the
// repository root (TWIN_model.json) and is regenerated byte-identically by
// `hotpotato-sim -calibrate` with the same seed.
type Model struct {
	// Version is the artifact format version (ModelVersion).
	Version string `json:"version"`
	// Hash is the content hash of the artifact ("sha256:…" over the
	// canonical encoding with this field empty).
	Hash string `json:"hash"`
	// Seed is the design-grid seed the calibration ran with.
	Seed int64 `json:"seed"`
	// Buckets maps BucketKey(w, h) to the bucket's fitted model.
	Buckets map[string]BucketModel `json:"buckets"`
}

// BucketKey names a platform-size bucket ("4x4", "8x8").
func BucketKey(width, height int) string { return fmt.Sprintf("%dx%d", width, height) }

// ComputeHash returns the artifact's content hash: "sha256:" + hex of the
// canonical JSON encoding with the Hash field blanked. encoding/json writes
// struct fields in declaration order and map keys sorted, and Go renders
// floats in shortest round-trip form, so the encoding — and therefore the
// hash — is deterministic across runs and platforms.
func (m *Model) ComputeHash() (string, error) {
	shadow := *m
	shadow.Hash = ""
	b, err := json.Marshal(&shadow)
	if err != nil {
		return "", fmt.Errorf("twin: hashing model: %w", err)
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// Validate checks the whole artifact: version, bucket invariants, and the
// integrity of the embedded content hash.
func (m *Model) Validate() error {
	if m.Version != ModelVersion {
		return fmt.Errorf("twin: unsupported model version %q (want %q)", m.Version, ModelVersion)
	}
	if len(m.Buckets) == 0 {
		return fmt.Errorf("twin: model has no buckets")
	}
	for key, b := range m.Buckets {
		if err := b.validate(key); err != nil {
			return err
		}
	}
	want, err := m.ComputeHash()
	if err != nil {
		return err
	}
	if m.Hash != want {
		return fmt.Errorf("twin: model hash %q does not match content (%s) — corrupt or hand-edited artifact", m.Hash, want)
	}
	return nil
}

// Encode renders the artifact as committed: content hash filled in,
// indented, trailing newline. Encoding the same model twice yields identical
// bytes.
func (m *Model) Encode() ([]byte, error) {
	hash, err := m.ComputeHash()
	if err != nil {
		return nil, err
	}
	out := *m
	out.Hash = hash
	b, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("twin: encoding model: %w", err)
	}
	return append(b, '\n'), nil
}

// Load decodes and fully validates a calibration artifact. Corrupt,
// truncated, version-skewed, or hash-mismatched input returns an error —
// never a panic and never a silently degraded model.
func Load(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("twin: decoding model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadFile is Load on a file path (the -twin-model server flag).
func LoadFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("twin: reading model: %w", err)
	}
	m, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("twin: %s: %w", path, err)
	}
	return m, nil
}

// Field is one prediction field: a point estimate with its conservative
// confidence bound. Conclusive is false when the input lies outside the
// calibration envelope — the estimate is still the model's best answer, but
// the bound is no longer backed by calibration evidence.
type Field struct {
	// Estimate is the point prediction (°C or seconds).
	Estimate float64 `json:"estimate"`
	// Bound is the conservative error bound: the true value is expected in
	// [Estimate−Bound, Estimate+Bound] (see docs/THEORY.md).
	Bound float64 `json:"bound"`
	// Conclusive reports whether the bound is backed by the calibration
	// envelope.
	Conclusive bool `json:"conclusive"`
}

// Prediction is the twin's full answer for one case.
type Prediction struct {
	// Bucket is the platform-size bucket that answered.
	Bucket string `json:"bucket"`
	// SteadyPeakC is the steady-state peak of the case's HotPower field.
	SteadyPeakC Field `json:"peak_steady_c"`
	// TransientPeakC is the predicted full-run peak temperature.
	TransientPeakC Field `json:"peak_transient_c"`
	// MakespanS is the predicted makespan in seconds.
	MakespanS Field `json:"makespan_s"`
}

// Predict evaluates the surrogate on one case. The error paths are
// structural (invalid case, no fitted bucket for the grid); a case outside
// the calibration envelope still predicts, with Conclusive false.
func (m *Model) Predict(c Case) (Prediction, error) {
	if err := c.Validate(); err != nil {
		return Prediction{}, err
	}
	key := BucketKey(c.Width, c.Height)
	b, ok := m.Buckets[key]
	if !ok {
		return Prediction{}, fmt.Errorf("twin: no calibrated bucket %q (have %d buckets)", key, len(m.Buckets))
	}
	conclusive := b.inEnvelope(totalPower(c.HotPower))

	var tx [transientDim]float64
	transientFeatures(tx[:], c)
	var mx [makespanDim]float64
	makespanFeatures(mx[:], c)

	return Prediction{
		Bucket: key,
		SteadyPeakC: Field{
			Estimate:   b.Ambient + b.steadyPeakDelta(c.HotPower),
			Bound:      b.SteadyBoundC,
			Conclusive: conclusive,
		},
		TransientPeakC: Field{
			Estimate:   b.Ambient + dot(b.Transient.Coef, tx[:]),
			Bound:      b.Transient.Bound,
			Conclusive: conclusive,
		},
		MakespanS: Field{
			Estimate:   dot(b.Makespan.Coef, mx[:]),
			Bound:      b.Makespan.Bound,
			Conclusive: conclusive,
		},
	}, nil
}
