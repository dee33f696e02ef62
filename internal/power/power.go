// Package power models per-core power consumption of the simulated S-NUCA
// many-core: a McPAT-like split of dynamic and leakage power under DVFS, the
// paper's fixed idle power (0.3 W, §VI), reduced power while memory-stalled,
// and the sliding power history (last 10 ms) that Algorithm 1 consumes.
package power

import (
	"encoding/json"
	"fmt"
	"math"
)

// DVFS describes the discrete voltage/frequency ladder. The paper's PCMig
// baseline steps frequency in 100 MHz increments (§VI); voltage follows an
// affine map between (FMin, VMin) and (FMax, VMax).
type DVFS struct {
	FMin  float64 `json:"fmin"`  // Hz
	FMax  float64 `json:"fmax"`  // Hz
	FStep float64 `json:"fstep"` // Hz
	VMin  float64 `json:"vmin"`  // volts at FMin
	VMax  float64 `json:"vmax"`  // volts at FMax
}

// DefaultDVFS returns the ladder used throughout the evaluation:
// 1.0–4.0 GHz in 100 MHz steps, 0.70–1.00 V.
func DefaultDVFS() DVFS {
	return DVFS{FMin: 1.0e9, FMax: 4.0e9, FStep: 0.1e9, VMin: 0.70, VMax: 1.00}
}

// Validate checks the ladder for consistency.
func (d DVFS) Validate() error {
	switch {
	case d.FMin <= 0 || d.FMax <= 0 || d.FStep <= 0:
		return fmt.Errorf("power: frequencies must be positive (fmin=%g fmax=%g step=%g)", d.FMin, d.FMax, d.FStep)
	case d.FMin > d.FMax:
		return fmt.Errorf("power: fmin %g above fmax %g", d.FMin, d.FMax)
	case d.VMin <= 0 || d.VMax < d.VMin:
		return fmt.Errorf("power: invalid voltage range [%g, %g]", d.VMin, d.VMax)
	}
	return nil
}

// Levels returns the available frequencies, ascending.
func (d DVFS) Levels() []float64 {
	var out []float64
	for f := d.FMin; f <= d.FMax+d.FStep/2; f += d.FStep {
		out = append(out, math.Min(f, d.FMax))
	}
	return out
}

// Level is one rung of the ladder with the ratios ActivePower scales by,
// computed once so that a scan over the ladder repeats no clamp and no
// voltage interpolation per level.
type Level struct {
	F  float64 // the frequency as given (Levels' value for a rung), Hz
	FR float64 // Clamp(F)/FMax
	VR float64 // VoltageAt(Clamp(F))/VMax
}

// LevelOf returns f's Level.
func (d DVFS) LevelOf(f float64) Level {
	c := d.Clamp(f)
	return Level{F: f, FR: c / d.FMax, VR: d.VoltageAt(c) / d.VMax}
}

// Ladder returns the Level of every frequency of Levels, ascending.
func (d DVFS) Ladder() []Level {
	levels := d.Levels()
	out := make([]Level, len(levels))
	for i, f := range levels {
		out[i] = d.LevelOf(f)
	}
	return out
}

// Clamp snaps f onto the ladder: the highest level not exceeding f, never
// below FMin.
func (d DVFS) Clamp(f float64) float64 {
	if f <= d.FMin {
		return d.FMin
	}
	if f >= d.FMax {
		return d.FMax
	}
	steps := math.Floor((f - d.FMin) / d.FStep)
	return d.FMin + steps*d.FStep
}

// StepDown returns the next level below f, or FMin if already at the bottom.
func (d DVFS) StepDown(f float64) float64 {
	return d.Clamp(f - d.FStep)
}

// StepUp returns the next level above f, capped at FMax.
func (d DVFS) StepUp(f float64) float64 {
	nf := d.Clamp(f) + d.FStep
	if nf > d.FMax {
		return d.FMax
	}
	return nf
}

// VoltageAt returns the supply voltage at frequency f (affine interpolation,
// clamped to the ladder's range).
func (d DVFS) VoltageAt(f float64) float64 {
	if f <= d.FMin {
		return d.VMin
	}
	if f >= d.FMax {
		return d.VMax
	}
	frac := (f - d.FMin) / (d.FMax - d.FMin)
	return d.VMin + frac*(d.VMax-d.VMin)
}

// Model converts a thread's activity into core power.
type Model struct {
	dvfs DVFS

	// IdleWatts is the power of a core with no thread or a thread blocked at
	// a barrier (paper §VI: 0.3 W).
	IdleWatts float64
	// StallWatts is the power while the pipeline is stalled on a memory
	// access: clocks gate most of the core but caches and the NoC interface
	// stay active.
	StallWatts float64
	// DynFraction is the dynamic share of a benchmark's nominal power at
	// FMax; the remainder is leakage, which scales with voltage only.
	DynFraction float64
}

// DefaultModel returns the calibrated power model.
func DefaultModel() Model {
	return Model{
		dvfs:        DefaultDVFS(),
		IdleWatts:   0.3,
		StallWatts:  1.0,
		DynFraction: 0.8,
	}
}

// NewModel builds a model around a custom DVFS ladder.
func NewModel(d DVFS, idleWatts, stallWatts, dynFraction float64) (Model, error) {
	if err := d.Validate(); err != nil {
		return Model{}, err
	}
	if idleWatts < 0 || stallWatts < idleWatts {
		return Model{}, fmt.Errorf("power: need 0 ≤ idle (%g) ≤ stall (%g)", idleWatts, stallWatts)
	}
	if dynFraction < 0 || dynFraction > 1 {
		return Model{}, fmt.Errorf("power: dynamic fraction %g outside [0,1]", dynFraction)
	}
	return Model{dvfs: d, IdleWatts: idleWatts, StallWatts: stallWatts, DynFraction: dynFraction}, nil
}

// DVFS returns the model's frequency ladder.
func (m Model) DVFS() DVFS { return m.dvfs }

// modelJSON is the wire form of Model; the DVFS ladder is an unexported
// field, so (un)marshalling goes through this shadow struct.
type modelJSON struct {
	DVFS        DVFS    `json:"dvfs"`
	IdleWatts   float64 `json:"idle_watts"`
	StallWatts  float64 `json:"stall_watts"`
	DynFraction float64 `json:"dyn_fraction"`
}

// MarshalJSON implements json.Marshaler.
func (m Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{
		DVFS: m.dvfs, IdleWatts: m.IdleWatts,
		StallWatts: m.StallWatts, DynFraction: m.DynFraction,
	})
}

// UnmarshalJSON implements json.Unmarshaler. Fields present in the document
// overlay the receiver's current values, so decoding a partial document over
// DefaultModel keeps the unspecified knobs at their defaults.
func (m *Model) UnmarshalJSON(b []byte) error {
	j := modelJSON{
		DVFS: m.dvfs, IdleWatts: m.IdleWatts,
		StallWatts: m.StallWatts, DynFraction: m.DynFraction,
	}
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	m.dvfs, m.IdleWatts, m.StallWatts, m.DynFraction =
		j.DVFS, j.IdleWatts, j.StallWatts, j.DynFraction
	return nil
}

// ActivePower returns the power of a core executing compute work at
// frequency f, for a benchmark whose nominal power at FMax is nominalWatts:
//
//	P(f) = dyn·nominal·(f/fmax)·(V/Vmax)² + leak·nominal·(V/Vmax)
//
// Dynamic power scales with f·V², leakage roughly with V.
func (m Model) ActivePower(nominalWatts, f float64) float64 {
	return m.LevelPower(nominalWatts, m.dvfs.LevelOf(f))
}

// LevelPower is ActivePower at a Level of the model's ladder (DVFS.LevelOf,
// DVFS.Ladder): bit-identical to ActivePower(nominalWatts, l.F).
func (m Model) LevelPower(nominalWatts float64, l Level) float64 {
	dyn := m.DynFraction * nominalWatts * l.FR * l.VR * l.VR
	leak := (1 - m.DynFraction) * nominalWatts * l.VR
	return dyn + leak
}

// IntervalPower returns the average power of a core over an interval in
// which the thread spent busyFrac of the time executing, stallFrac stalled
// on memory, and the remainder idle (barrier wait or no thread). Fractions
// must sum to at most 1.
func (m Model) IntervalPower(nominalWatts, f, busyFrac, stallFrac float64) float64 {
	if busyFrac < 0 || stallFrac < 0 || busyFrac+stallFrac > 1+1e-9 {
		panic(fmt.Sprintf("power: invalid fractions busy=%g stall=%g", busyFrac, stallFrac))
	}
	idleFrac := 1 - busyFrac - stallFrac
	return busyFrac*m.ActivePower(nominalWatts, f) + stallFrac*m.StallWatts + idleFrac*m.IdleWatts
}
