package experiments

// Row types of the harness figures that run as simulation cells. The root
// package's harness (Fig4a, Fig4b, the ablations) fills them; the writers
// and CSV emitters of this package print them.

// Fig4aRow is one benchmark of the homogeneous full-load comparison.
type Fig4aRow struct {
	Benchmark          string
	HotPotatoMakespan  float64 // seconds
	PCMigMakespan      float64
	NormalizedMakespan float64 // HotPotato / PCMig (the paper's Fig. 4a y-axis)
	SpeedupPercent     float64 // (PCMig − HotPotato) / PCMig × 100
	HotPotatoPeak      float64 // °C
	PCMigPeak          float64
	HotPotatoEnergy    float64 // J (core energy over the whole run)
	PCMigEnergy        float64
}

// Fig4aAverageSpeedup returns the mean speedup across rows (the paper's
// headline 10.72%).
func Fig4aAverageSpeedup(rows []Fig4aRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += r.SpeedupPercent
	}
	return sum / float64(len(rows))
}

// Fig4bRow is one load level of the heterogeneous open-system comparison.
type Fig4bRow struct {
	ArrivalRate       float64 // tasks per second
	HotPotatoResponse float64 // mean response time, seconds
	PCMigResponse     float64
	SpeedupPercent    float64
}

// DefaultFig4bRates spans under-loaded to over-loaded (tasks/second).
func DefaultFig4bRates() []float64 { return []float64{25, 50, 100, 200, 400} }

// Fig4bAggRow aggregates one load level over several workload seeds.
type Fig4bAggRow struct {
	ArrivalRate   float64
	MeanSpeedup   float64 // percent
	SpeedupCI95   float64 // ± half-width, percent
	MeanHotPotato float64 // seconds
	MeanPCMig     float64
	Seeds         int
}

// HybridRow compares the three policies of the future-work experiment on one
// benchmark.
type HybridRow struct {
	Benchmark string
	// Makespans, seconds.
	HotPotato float64
	Hybrid    float64
	PCMig     float64
	// DTM throttling time, seconds.
	HotPotatoDTM float64
	HybridDTM    float64
}

// BaselineRow is one policy of the cross-policy summary.
type BaselineRow struct {
	Policy     string
	Makespan   float64 // seconds
	PeakTemp   float64 // °C
	DTMTime    float64 // seconds throttled
	Migrations int
	EnergyJ    float64
}

// NoiseSweepRow is one sensor-noise level of the robustness ablation.
type NoiseSweepRow struct {
	NoiseStdDev float64 // K
	Makespan    float64 // seconds
	PeakTemp    float64
	DTMTime     float64
}

// HeadroomSweepRow is one Δ setting of the headroom ablation.
type HeadroomSweepRow struct {
	Delta     float64 // K
	Makespan  float64
	PeakTemp  float64
	DTMEvents int
}

// ContentionRow compares one benchmark with the NoC/bank contention model on
// and off.
type ContentionRow struct {
	Benchmark         string
	HotPotatoOff      float64 // makespan, contention-free
	HotPotatoOn       float64 // makespan with contention
	PCMigOn           float64
	SpeedupOnPercent  float64 // HotPotato vs PCMig, both with contention
	ContentionCostPct float64 // HotPotato slowdown from enabling contention
}

// MigrationCostRow is one point of the migration-cost sensitivity ablation.
type MigrationCostRow struct {
	CostScale      float64 // multiplier on the per-migration OS overhead
	HotPotato      float64 // makespan, seconds
	PCMig          float64
	SpeedupPercent float64
}

// TauSweepRow is one rotation-interval setting of the τ ablation.
type TauSweepRow struct {
	Tau        float64 // seconds
	Response   float64 // seconds
	PeakTemp   float64 // °C
	Migrations int
}

// DefaultTaus spans the τ adaptation range of HotPotato.
func DefaultTaus() []float64 {
	return []float64{0.125e-3, 0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3}
}

// RingScopeRow compares rotation scopes.
type RingScopeRow struct {
	Scope    string
	Response float64
	PeakTemp float64
}
