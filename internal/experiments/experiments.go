// Package experiments holds the paper's evaluation (§VI) outside the
// simulation cells: the row types of every table and figure, their
// paper-style writers and CSV emitters, and the measurements that are not
// grids of independent simulations — the Table I platform, the Fig. 2
// motivational thermal traces, the per-benchmark heterogeneity table, the
// 3D exploration, the run-time overhead and the analytic-vs-brute timing.
// These run serially; Overhead and AnalyticVsBrute must, since concurrent
// work would corrupt the wall-clock times they report.
//
// The figures that are grids of simulations (Fig. 4a/4b and the ablations)
// live in the root package's harness, which runs them as RunSpec cells on
// the sweep executor and fills the row types declared here.
package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// Options scales experiments down for quick runs; the zero value means the
// paper's full scale.
type Options struct {
	// GridEdge is the chip's edge length (default 8 → 64 cores, Table I).
	GridEdge int
	// WorkScale multiplies every task's instruction count (default 1).
	WorkScale float64
	// TDTM is the DTM threshold handed to the schedulers (default 70 °C,
	// §VI).
	TDTM float64
	// Workers bounds the number of simulation cells run concurrently
	// (default runtime.GOMAXPROCS(0)). Any value yields bit-identical
	// results: cells are independent and collected by index.
	Workers int
}

// WithDefaults returns a copy with the zero fields set to the paper's full
// scale; a zero Workers stays zero (the executor's GOMAXPROCS default).
func (o Options) WithDefaults() Options {
	if o.GridEdge == 0 {
		o.GridEdge = 8
	}
	if o.WorkScale == 0 {
		o.WorkScale = 1
	}
	if o.TDTM == 0 {
		o.TDTM = 70
	}
	return o
}

// TableIRow is one platform parameter.
type TableIRow struct {
	Parameter string
	Value     string
}

// TableI returns the simulated platform parameters in the paper's Table I
// form, read back from the live default configuration (not re-typed
// constants), so drift between code and documentation is impossible.
func TableI() ([]TableIRow, error) {
	cfg := sim.DefaultPlatformConfig(8, 8)
	plat, err := sim.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	cc := plat.Caches.Config()
	nc := plat.Net.Config()
	return []TableIRow{
		{"Number of Cores", fmt.Sprintf("%d", plat.NumCores())},
		{"Core Model", fmt.Sprintf("x86, %.1f GHz, out-of-order (interval model)", plat.Power.DVFS().FMax/1e9)},
		{"L1 I/D cache", fmt.Sprintf("%d/%d KB, %d/%d-way, %dB-block", cc.L1IKB, cc.L1DKB, cc.L1Ways, cc.L1Ways, cc.BlockBytes)},
		{"LLC", fmt.Sprintf("%d KB per core, %d-way, %dB-block", cc.LLCPerCoreKB, cc.LLCWays, cc.BlockBytes)},
		{"NoC Latency", fmt.Sprintf("%.1f ns per hop", nc.HopLatency*1e9)},
		{"NoC link width", fmt.Sprintf("%d Bit", nc.LinkWidthBits)},
		{"The area of core", fmt.Sprintf("%.2f mm²", plat.FP.CoreArea()*1e6)},
	}, nil
}
