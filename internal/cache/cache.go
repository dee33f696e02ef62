// Package cache models the memory hierarchy of an S-NUCA many-core: private
// per-core L1 instruction/data caches and a physically distributed, logically
// shared LLC whose banks are statically mapped to the address space (S-NUCA,
// paper §I). The package also quantifies the thread-migration penalty — the
// property the whole paper rests on: because the LLC is shared, a migration
// only needs to flush/refill the small private caches, so migrating is cheap
// relative to DVFS (paper §I, §III-A).
package cache

import (
	"fmt"

	"repro/internal/noc"
)

// Config describes the cache hierarchy (paper Table I).
type Config struct {
	L1IKB        int `json:"l1i_kb"`          // L1 instruction cache size, KB (Table I: 16)
	L1DKB        int `json:"l1d_kb"`          // L1 data cache size, KB (Table I: 16)
	L1Ways       int `json:"l1_ways"`         // associativity (Table I: 8)
	LLCPerCoreKB int `json:"llc_per_core_kb"` // LLC bank per core, KB (Table I: 128)
	LLCWays      int `json:"llc_ways"`        // LLC associativity (Table I: 16)
	BlockBytes   int `json:"block_bytes"`     // cache line size (Table I: 64)

	// DirtyFraction is the expected fraction of private-cache lines that are
	// dirty at migration time and must be written back to the LLC.
	DirtyFraction float64 `json:"dirty_fraction"`
	// WarmFraction is the expected fraction of private-cache lines the
	// thread re-touches soon after migration (the refill cost it observes).
	WarmFraction float64 `json:"warm_fraction"`
	// OSOverhead is the fixed per-migration cost of moving a thread between
	// cores — context save/restore, TLB shootdown, run-queue handoff, and
	// pipeline warm-up. HotSniper charges an equivalent flat interval cost.
	OSOverhead float64 `json:"os_overhead"` // seconds
}

// DefaultConfig returns the Table I hierarchy with typical dirty/warm
// fractions for interval simulation.
func DefaultConfig() Config {
	return Config{
		L1IKB:         16,
		L1DKB:         16,
		L1Ways:        8,
		LLCPerCoreKB:  128,
		LLCWays:       16,
		BlockBytes:    64,
		DirtyFraction: 0.3,
		WarmFraction:  0.7,
		OSOverhead:    30e-6,
	}
}

// Hierarchy is an S-NUCA cache hierarchy bound to a NoC.
type Hierarchy struct {
	cfg Config
	net *noc.Network
	n   int // number of cores = number of LLC banks
}

// New validates the configuration and builds the hierarchy.
func New(net *noc.Network, numCores int, cfg Config) (*Hierarchy, error) {
	switch {
	case cfg.L1IKB <= 0 || cfg.L1DKB <= 0:
		return nil, fmt.Errorf("cache: L1 sizes must be positive, got %d/%d KB", cfg.L1IKB, cfg.L1DKB)
	case cfg.LLCPerCoreKB <= 0:
		return nil, fmt.Errorf("cache: LLC bank size must be positive, got %d KB", cfg.LLCPerCoreKB)
	case cfg.BlockBytes <= 0:
		return nil, fmt.Errorf("cache: block size must be positive, got %d", cfg.BlockBytes)
	case cfg.DirtyFraction < 0 || cfg.DirtyFraction > 1:
		return nil, fmt.Errorf("cache: dirty fraction %g outside [0,1]", cfg.DirtyFraction)
	case cfg.WarmFraction < 0 || cfg.WarmFraction > 1:
		return nil, fmt.Errorf("cache: warm fraction %g outside [0,1]", cfg.WarmFraction)
	case cfg.OSOverhead < 0:
		return nil, fmt.Errorf("cache: OS overhead %g must be non-negative", cfg.OSOverhead)
	case numCores <= 0:
		return nil, fmt.Errorf("cache: need at least one core, got %d", numCores)
	}
	return &Hierarchy{cfg: cfg, net: net, n: numCores}, nil
}

// Config returns the hierarchy parameters.
func (h *Hierarchy) Config() Config { return h.cfg }

// HomeBank returns the LLC bank (core ID) that statically owns the cache line
// containing address addr. S-NUCA interleaves consecutive lines across banks,
// so the mapping is (addr / blockSize) mod n — a pure function of the
// address, which is what makes S-NUCA lookups cheap and migrations coherent
// for free.
func (h *Hierarchy) HomeBank(addr uint64) int {
	return int((addr / uint64(h.cfg.BlockBytes)) % uint64(h.n))
}

// PrivateLines returns the total number of cache lines in one core's private
// caches (L1I + L1D) — the state that must move on a thread migration.
func (h *Hierarchy) PrivateLines() int {
	bytes := (h.cfg.L1IKB + h.cfg.L1DKB) * 1024
	return bytes / h.cfg.BlockBytes
}

// MigrationPenalty estimates the execution-time cost (seconds) a thread pays
// when migrating from core src to core dst:
//
//   - flush: dirty private lines are written back to their home LLC banks.
//     Writebacks overlap with each other, but the thread cannot restart
//     until the flush completes; we charge the average one-way latency from
//     src once per dirty line, pipelined on the NoC link (one line per
//     serialization slot).
//   - refill: after restart, the warm fraction of the working set misses in
//     the private caches and refills from the LLC at dst's average
//     round-trip. Misses overlap with execution only partially; interval
//     models charge them as stall time.
//
// The penalty is deliberately a smooth analytic function — HotSniper charges
// an equivalent interval-level cost rather than simulating each line. A
// thread that stays on its core (src == dst) pays nothing.
func (h *Hierarchy) MigrationPenalty(src, dst int) float64 {
	if src == dst {
		return 0
	}
	lines := float64(h.PrivateLines())
	lineBits := h.cfg.BlockBytes * 8

	// Flush: pipeline of dirty lines leaving src. The first line pays the
	// full latency; subsequent lines stream behind at the serialization rate.
	dirty := lines * h.cfg.DirtyFraction
	flushFirst := h.net.AvgLLCRoundTrip(src) / 2 // one-way
	serialization := float64(lineBits/h.net.Config().LinkWidthBits) * h.net.Config().HopLatency
	flush := flushFirst + dirty*serialization

	// Refill: warm lines miss at dst and each costs a round-trip; misses
	// arrive as execution touches them, roughly half overlapped.
	warm := lines * h.cfg.WarmFraction
	refill := 0.5 * warm * h.net.AvgLLCRoundTrip(dst)

	return h.cfg.OSOverhead + flush + refill
}
