// Package sim is the interval thermal simulator — the reproduction of the
// HotSniper toolchain [12] the paper evaluates in. It advances simulated
// time in fixed slices; in each slice it executes the mapped threads with the
// interval performance model, converts their activity into per-core power,
// integrates the RC thermal model exactly (matrix exponential), enforces
// hardware DTM, and invokes the pluggable scheduler at its requested cadence
// and on task arrival/finish events.
package sim

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/floorplan"
	"repro/internal/noc"
	"repro/internal/perf"
	"repro/internal/power"
	"repro/internal/rotation"
	"repro/internal/thermal"
)

// Platform bundles every hardware model of the simulated many-core.
type Platform struct {
	FP      *floorplan.Floorplan
	Net     *noc.Network
	Caches  *cache.Hierarchy
	Thermal *thermal.Model
	Power   power.Model
	Perf    *perf.Model

	peakOnce sync.Once
	peak     *rotation.Calculator
}

// PlatformConfig collects the knobs of all substrates. The zero value is not
// usable; start from DefaultPlatformConfig. It is a plain comparable value:
// copy freely, compare with ==, use as a map key (the platform cache of the
// serving layer keys shared Platforms this way).
type PlatformConfig struct {
	Width       int            `json:"width"`
	Height      int            `json:"height"`
	CoreEdge    float64        `json:"core_edge"` // meters
	NoC         noc.Config     `json:"noc"`
	Cache       cache.Config   `json:"cache"`
	Thermal     thermal.Config `json:"thermal"`
	Power       power.Model    `json:"power"`
	BankAccess  float64        `json:"bank_access"`  // LLC bank access time, seconds
	DRAMLatency float64        `json:"dram_latency"` // off-chip penalty paid by LLC misses, seconds
}

// DefaultPlatformConfig returns the paper's Table I platform at the given
// grid size (the evaluation uses 8×8 = 64 cores; the motivational example
// 4×4 = 16).
func DefaultPlatformConfig(width, height int) PlatformConfig {
	return PlatformConfig{
		Width:       width,
		Height:      height,
		CoreEdge:    0.0009, // 0.81 mm² per core
		NoC:         noc.DefaultConfig(),
		Cache:       cache.DefaultConfig(),
		Thermal:     thermal.DefaultConfig(),
		Power:       power.DefaultModel(),
		BankAccess:  perf.DefaultBankAccess,
		DRAMLatency: perf.DefaultDRAMLatency,
	}
}

// NewPlatform builds and validates all substrate models.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	fp, err := floorplan.New(cfg.Width, cfg.Height, cfg.CoreEdge)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	net, err := noc.New(fp, cfg.NoC)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	caches, err := cache.New(net, fp.NumCores(), cfg.Cache)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	thermalModel, err := thermal.New(fp, cfg.Thermal)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	perfModel, err := perf.NewWithDRAM(net, cfg.BankAccess, cfg.DRAMLatency)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := cfg.Power.DVFS().Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Platform{
		FP:      fp,
		Net:     net,
		Caches:  caches,
		Thermal: thermalModel,
		Power:   cfg.Power,
		Perf:    perfModel,
	}, nil
}

// NumCores returns the core count of the platform.
func (p *Platform) NumCores() int { return p.FP.NumCores() }

// PeakCalculator returns the platform's Algorithm 1 calculator, built on
// first call and shared by every scheduler and goroutine running on the
// platform: its response tables (rotation.RingEvaluator) fill lazily, once
// per (ring, τ), and stay for the platform's lifetime. Callers must not
// change its tolerance (SetIterTol); build a private rotation.Calculator
// for that.
func (p *Platform) PeakCalculator() *rotation.Calculator {
	p.peakOnce.Do(func() { p.peak = rotation.NewCalculator(p.Thermal) })
	return p.peak
}
