// Package perf is the interval performance model (the Sniper/HotSniper
// abstraction level): a thread's execution rate on a core is derived from a
// two-component CPI stack — a compute component that scales with core
// frequency, and a memory component in wall-clock seconds set by the S-NUCA
// LLC round-trip for the core's AMD. The model captures the two effects the
// paper's schedulers trade on:
//
//   - S-NUCA performance heterogeneity: low-AMD (central) cores see faster
//     average LLC accesses, so memory-bound threads prefer them ([19]);
//   - DVFS asymmetry: lowering f stretches only the compute component, so
//     memory-bound threads lose less performance than compute-bound ones.
package perf

import (
	"fmt"

	"repro/internal/noc"
)

// Params is the per-benchmark CPI stack description.
type Params struct {
	BaseCPI float64 // cycles per instruction when not stalled on the LLC
	MPKI    float64 // LLC accesses per kilo-instruction
	// LLCMissRatio is the fraction of LLC accesses that miss the distributed
	// LLC entirely and pay the off-chip DRAM round trip on top of the bank
	// access. Zero models a fully cache-resident working set.
	LLCMissRatio float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.BaseCPI <= 0 {
		return fmt.Errorf("perf: BaseCPI must be positive, got %g", p.BaseCPI)
	}
	if p.MPKI < 0 {
		return fmt.Errorf("perf: MPKI must be non-negative, got %g", p.MPKI)
	}
	if p.LLCMissRatio < 0 || p.LLCMissRatio > 1 {
		return fmt.Errorf("perf: LLC miss ratio %g outside [0,1]", p.LLCMissRatio)
	}
	return nil
}

// Model computes execution rates on a platform.
type Model struct {
	net *noc.Network

	// BankAccess is the LLC bank array access time added to every LLC
	// round-trip (seconds).
	BankAccess float64
	// DRAMLatency is the additional off-chip round trip an LLC miss pays:
	// home bank → memory controller → DRAM array and back. It is
	// placement-independent (the bank→controller hop averages out over the
	// statically interleaved banks).
	DRAMLatency float64
}

// DefaultBankAccess is a typical 128 KB SRAM bank access time.
const DefaultBankAccess = 5e-9

// DefaultDRAMLatency is a typical off-chip access penalty (controller
// queueing + DRAM array access).
const DefaultDRAMLatency = 60e-9

// New builds a performance model over the NoC with no off-chip penalty;
// use NewWithDRAM to model LLC misses.
func New(net *noc.Network, bankAccess float64) (*Model, error) {
	return NewWithDRAM(net, bankAccess, 0)
}

// NewWithDRAM builds a performance model that charges dramLatency seconds on
// the LLCMissRatio fraction of LLC accesses.
func NewWithDRAM(net *noc.Network, bankAccess, dramLatency float64) (*Model, error) {
	if bankAccess < 0 {
		return nil, fmt.Errorf("perf: bank access time must be non-negative, got %g", bankAccess)
	}
	if dramLatency < 0 {
		return nil, fmt.Errorf("perf: DRAM latency must be non-negative, got %g", dramLatency)
	}
	return &Model{net: net, BankAccess: bankAccess, DRAMLatency: dramLatency}, nil
}

// MemTimePerInstr returns the average wall-clock memory stall per instruction
// for a thread on core `core`: MPKI/1000 accesses, each paying the bank
// access plus the AMD-dependent NoC round trip, and the missing fraction
// additionally paying the off-chip DRAM penalty. Frequency-independent.
func (m *Model) MemTimePerInstr(p Params, core int) float64 {
	perAccess := m.BankAccess + m.net.AvgLLCRoundTrip(core) + p.LLCMissRatio*m.DRAMLatency
	return p.MPKI / 1000 * perAccess
}

// TimePerInstr returns the average wall-clock seconds per instruction on core
// `core` at frequency f.
func (m *Model) TimePerInstr(p Params, core int, f float64) float64 {
	if f <= 0 {
		panic(fmt.Sprintf("perf: frequency must be positive, got %g", f))
	}
	return p.BaseCPI/f + m.MemTimePerInstr(p, core)
}

// IPS returns instructions per second on core `core` at frequency f.
func (m *Model) IPS(p Params, core int, f float64) float64 {
	return 1 / m.TimePerInstr(p, core, f)
}

// EffectiveCPI returns the observed cycles per instruction on core `core` at
// frequency f, the metric HotPotato sorts threads by (Algorithm 2): a high
// effective CPI marks a memory-bound thread.
func (m *Model) EffectiveCPI(p Params, core int, f float64) float64 {
	return m.TimePerInstr(p, core, f) * f
}

// Fractions splits a thread's time on core `core` at frequency f into the
// busy (compute) and stall (memory) shares, which the power model converts
// into watts. busy + stall = 1.
func (m *Model) Fractions(p Params, core int, f float64) (busy, stall float64) {
	return FractionsAt(p, f, m.MemTimePerInstr(p, core))
}

// FractionsAt is Fractions for a core whose MemTimePerInstr is mem, for
// callers that scan many frequencies on one core: bit-identical to
// Fractions(p, core, f).
func FractionsAt(p Params, f, mem float64) (busy, stall float64) {
	compute := p.BaseCPI / f
	total := compute + mem
	return compute / total, mem / total
}

// SlowdownAt returns the performance loss factor of running at frequency f
// instead of fMax: TimePerInstr(f)/TimePerInstr(fMax) ≥ 1. Memory-bound
// threads have values close to 1 — the asymmetry PCMig's DVFS suffers from.
func (m *Model) SlowdownAt(p Params, core int, f, fMax float64) float64 {
	return m.TimePerInstr(p, core, f) / m.TimePerInstr(p, core, fMax)
}

// ContentionFactor converts a bank/NoC utilization ρ ∈ [0,1) into an M/M/1
// latency multiplier 1/(1−ρ), clamped at ρ = 0.95 (20×) to keep the
// interval fixed point stable under overload.
func ContentionFactor(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho > 0.95 {
		rho = 0.95
	}
	return 1 / (1 - rho)
}
