package sched

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Static pins threads to fixed cores at a fixed uniform frequency and never
// migrates. With DTM disabled it reproduces the unmanaged execution of the
// paper's Fig. 2(a); with DTM enabled it shows what hardware protection alone
// does to an unmanaged mapping.
type Static struct {
	pins map[sim.ThreadID]int
	freq float64 // 0 means peak frequency
}

// NewStatic builds a pinned scheduler. Threads not present in pins stay
// queued forever, so pins must cover the workload.
func NewStatic(pins map[sim.ThreadID]int, freq float64) *Static {
	copied := make(map[sim.ThreadID]int, len(pins))
	for k, v := range pins {
		copied[k] = v
	}
	return &Static{pins: copied, freq: freq}
}

// Name implements sim.Scheduler.
func (s *Static) Name() string { return "static" }

// Decide implements sim.Scheduler.
func (s *Static) Decide(st *sim.State) sim.Decision {
	assignment := make(map[sim.ThreadID]int)
	for _, th := range st.Threads {
		if core, ok := s.pins[th.ID]; ok {
			assignment[th.ID] = core
		}
	}
	var freqs []float64
	if s.freq > 0 {
		freqs = fillFreq(nil, st.Platform.NumCores(), s.freq)
	}
	return sim.Decision{Assignment: assignment, Freq: freqs}
}

// fillFreq sets buf to n copies of f, reusing its storage, and returns it.
func fillFreq(buf []float64, n int, f float64) []float64 {
	buf = slices.Grow(buf[:0], n)[:n]
	for i := range buf {
		buf[i] = f
	}
	return buf
}

// RotationStatic rotates a fixed set of threads synchronously around a fixed
// core cycle at a fixed interval τ, at peak frequency — the policy of the
// paper's motivational Fig. 2(c) (two blackscholes threads rotating over the
// four centre cores at τ = 0.5 ms).
type RotationStatic struct {
	slots map[sim.ThreadID]int // thread → slot index in cores
	cores []int                // rotation cycle in walk order
	tau   float64
}

// NewRotationStatic places each thread at its slot in the core cycle; slot i
// at time t executes on cores[(i + floor(t/τ)) mod len(cores)].
func NewRotationStatic(slots map[sim.ThreadID]int, cores []int, tau float64) (*RotationStatic, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("sched: rotation interval must be positive, got %g", tau)
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("sched: rotation needs at least one core")
	}
	seen := map[int]bool{}
	for _, c := range cores {
		if seen[c] {
			return nil, fmt.Errorf("sched: core %d appears twice in rotation cycle", c)
		}
		seen[c] = true
	}
	copied := make(map[sim.ThreadID]int, len(slots))
	for id, slot := range slots {
		if slot < 0 || slot >= len(cores) {
			return nil, fmt.Errorf("sched: slot %d outside cycle of %d cores", slot, len(cores))
		}
		copied[id] = slot
	}
	return &RotationStatic{slots: copied, cores: append([]int(nil), cores...), tau: tau}, nil
}

// Name implements sim.Scheduler.
func (r *RotationStatic) Name() string { return "rotation-static" }

// Decide implements sim.Scheduler.
func (r *RotationStatic) Decide(st *sim.State) sim.Decision {
	step := int(st.Time/r.tau+0.5) % len(r.cores)
	assignment := make(map[sim.ThreadID]int)
	for _, th := range st.Threads {
		if slot, ok := r.slots[th.ID]; ok {
			assignment[th.ID] = r.cores[(slot+step)%len(r.cores)]
		}
	}
	return sim.Decision{Assignment: assignment, NextInvoke: r.tau}
}
