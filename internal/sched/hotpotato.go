package sched

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/floorplan"
	"repro/internal/rotation"
	"repro/internal/sim"
)

// HotPotato is the paper's scheduler (Algorithm 2): threads are assigned to
// concentric AMD rings and rotate synchronously within their ring every τ
// seconds at peak frequency — no DVFS. Thermal safety of every decision is
// checked with the analytical peak-temperature method of Algorithm 1
// (internal/rotation), fed by each thread's 10 ms power history.
//
// Decisions:
//   - new thread: try rings inside-out (best performance first); accept the
//     first ring whose rotation keeps T_peak + Δ < T_DTM. If even the
//     outermost ring is unsafe, existing low-CPI threads are pushed outward
//     and, failing that, τ shrinks until the headroom appears (lines 1–14).
//   - thread exit / headroom growth: the highest-CPI (most memory-bound)
//     threads migrate inward while safe, then τ relaxes — growing up to
//     τ_max and finally stopping rotation entirely when the workload is
//     thermally sustainable without it (lines 15–27).
//
// One deliberate approximation, documented in DESIGN.md: when Algorithm 1
// evaluates a configuration, the ring under consideration rotates explicitly
// (δ = ring size) while every other occupied ring contributes its
// time-averaged, spatially uniform power — which is exactly what rotation
// achieves on average. This keeps the rotation period δ small instead of the
// lcm of all ring sizes, and makes slot choice within a ring a spacing
// heuristic rather than an exhaustive scan.
type HotPotato struct {
	// calc is the platform's shared Algorithm 1 calculator and its
	// response tables; ringEval is this scheduler's own evaluator over them.
	calc     *rotation.Calculator
	ringEval *rotation.RingEvaluator
	rings    []floorplan.Ring

	tdtm    float64
	delta   float64 // headroom Δ (paper §VI: 1 °C)
	tauInit float64
	tauMin  float64
	tauMax  float64

	tau    float64
	rotate bool

	// pinning holds the ring slots: slot i of ring r is position
	// ringStart[r]+i. The rings partition the chip, so there are exactly
	// NumCores positions; ringStart has one more entry, the end of the last
	// ring.
	pinning   pinning
	ringStart []int

	rotSteps    int
	lastRotTime float64

	rebalanceEvery float64
	lastRebalance  float64
	lastSafety     float64

	// powerScale rescales the above-idle part of every thread's power in
	// Algorithm 1 evaluations. It is 1 for pure HotPotato; the DVFS-unified
	// extension (HotPotatoDVFS) sets it to project measured powers onto a
	// candidate frequency.
	powerScale float64
	idleWatts  float64

	// evalPeak scratch, sized at construction so a decision allocates
	// nothing for Algorithm 1's inputs.
	ringMean     []float64
	ringOccupied []bool
	base         []float64
	slotWatts    []float64

	// evalStaticPeak scratch: the pinned per-core power, its steady state
	// over every node, and the sparse backend's banded-solve scratch.
	staticWatts   []float64
	staticTemps   []float64
	staticScratch []float64

	// cands is the migration candidate list of pushOutward and rebalance,
	// reused across calls.
	cands []cand
	scr   scratch
	// assignment is the Assignment of every Decision returned, refilled
	// each Decide (borrowed until the next, see sim.Decision).
	assignment map[sim.ThreadID]int
}

// cand is a placed thread that may migrate, with its ring, position and CPI.
type cand struct {
	id        sim.ThreadID
	ring, pos int
	cpi       float64
}

// byCPI orders candidates by CPI, lowest first, then by thread ID. Thread
// IDs are unique and CPIs finite, so this is a total order: the unstable
// sort puts the candidates in one order whatever order they were gathered
// in.
func byCPI(a, b cand) int {
	if c := cmp.Compare(a.cpi, b.cpi); c != 0 {
		return c
	}
	return cmpID(a.id, b.id)
}

// byCPIDesc is byCPI with the highest CPI first; ties still go by ascending
// thread ID.
func byCPIDesc(a, b cand) int {
	if c := cmp.Compare(b.cpi, a.cpi); c != 0 {
		return c
	}
	return cmpID(a.id, b.id)
}

// HotPotatoOption customises the scheduler.
type HotPotatoOption func(*HotPotato)

// WithHeadroom sets Δ (default 1 °C, paper §VI).
func WithHeadroom(delta float64) HotPotatoOption {
	return func(h *HotPotato) { h.delta = delta }
}

// WithRotationInterval sets the initial τ (default 0.5 ms, paper §VI).
func WithRotationInterval(tau float64) HotPotatoOption {
	return func(h *HotPotato) { h.tauInit = tau; h.tau = tau }
}

// WithRotationBounds sets the τ adaptation range (defaults 0.125–4 ms).
func WithRotationBounds(min, max float64) HotPotatoOption {
	return func(h *HotPotato) { h.tauMin = min; h.tauMax = max }
}

// WithRebalanceEvery sets how often the headroom re-evaluation of Algorithm 2
// lines 15–27 runs even without arrivals/departures (default 5 ms).
func WithRebalanceEvery(interval float64) HotPotatoOption {
	return func(h *HotPotato) { h.rebalanceEvery = interval }
}

// NewHotPotato builds the scheduler for a platform. Algorithm 1's
// design-time work lives on the platform (sim.Platform.PeakCalculator) and
// is shared by every run on it.
func NewHotPotato(plat *sim.Platform, tdtm float64, opts ...HotPotatoOption) *HotPotato {
	rings := plat.FP.Rings()
	calc := plat.PeakCalculator()
	h := &HotPotato{
		calc:           calc,
		ringEval:       calc.NewRingEvaluator(),
		rings:          rings,
		tdtm:           tdtm,
		delta:          1,
		tauInit:        0.5e-3,
		tauMin:         0.125e-3,
		tauMax:         4e-3,
		tau:            0.5e-3,
		rotate:         true,
		pinning:        newPinning(),
		ringStart:      make([]int, len(rings)+1),
		assignment:     map[sim.ThreadID]int{},
		rebalanceEvery: 5e-3,
		powerScale:     1,
		idleWatts:      plat.Power.IdleWatts,
		ringMean:       make([]float64, len(rings)),
		ringOccupied:   make([]bool, len(rings)),
		base:           make([]float64, plat.NumCores()),
		staticWatts:    make([]float64, plat.NumCores()),
		staticTemps:    make([]float64, calc.Model().N),
		staticScratch:  make([]float64, calc.Model().N-1),
	}
	maxRing := 0
	for r, ring := range rings {
		h.ringStart[r+1] = h.ringStart[r] + len(ring.Cores)
		maxRing = max(maxRing, len(ring.Cores))
	}
	h.slotWatts = make([]float64, 0, maxRing)
	for _, o := range opts {
		o(h)
	}
	return h
}

// Name implements sim.Scheduler.
func (h *HotPotato) Name() string { return "hotpotato" }

// Tau returns the current rotation interval (for instrumentation).
func (h *HotPotato) Tau() float64 { return h.tau }

// Rotating reports whether rotation is currently enabled.
func (h *HotPotato) Rotating() bool { return h.rotate }

// Decide implements sim.Scheduler.
func (h *HotPotato) Decide(st *sim.State) sim.Decision {
	h.advanceRotation(st.Time)

	// Departures free slots and create headroom (Algorithm 2 line 15).
	departed := h.pinning.sync(st)

	// Admissions (Algorithm 2 lines 1–14), gang FIFO per task.
	for _, group := range h.scr.queuedTasks(st) {
		if h.freeSlotCount() < len(group.threads) {
			break
		}
		for _, th := range group.threads {
			h.placeThread(st, th)
		}
	}

	// Reactive safety: measured temperature near the threshold tightens τ
	// (the "sudden increase in thermal headroom demand" case). Rate-limited
	// so the evaluation cost stays off the per-epoch fast path.
	maxTemp := maxOf(st.CoreTemps)
	if maxTemp > h.tdtm-h.delta && st.Time-h.lastSafety >= 1e-3 {
		h.tighten(st)
		h.lastSafety = st.Time
	}

	if departed || st.Time-h.lastRebalance >= h.rebalanceEvery {
		h.rebalance(st)
		h.lastRebalance = st.Time
	}

	// Materialise the assignment with the current rotation offset.
	assignment := h.assignment
	clear(assignment)
	for r := range h.rings {
		for i, pn := range h.ring(r) {
			if pn.used {
				assignment[pn.id] = h.coreOf(r, i)
			}
		}
	}

	if h.rotate {
		metricTau.Set(h.tau)
	} else {
		metricTau.Set(0)
	}
	next := h.tau
	if !h.rotate {
		next = 2e-3
	}
	return sim.Decision{Assignment: assignment, NextInvoke: next}
}

// coreOf is the core slot i of ring r sits on at the current rotation offset.
func (h *HotPotato) coreOf(r, i int) int {
	cores := h.rings[r].Cores
	if h.rotate {
		i = (i + h.rotSteps) % len(cores)
	}
	return cores[i]
}

// ring is the slots of ring r, in slot order.
func (h *HotPotato) ring(r int) []pin {
	return h.pinning.pins[h.ringStart[r]:h.ringStart[r+1]]
}

// candidates gathers the threads placed in rings [lo, hi) with their CPIs
// into the reused candidate list.
func (h *HotPotato) candidates(lo, hi int) []cand {
	cands := h.cands[:0]
	for r := lo; r < hi; r++ {
		for i, pn := range h.ring(r) {
			if pn.used {
				cands = append(cands, cand{pn.id, r, h.ringStart[r] + i, pn.th.CPI})
			}
		}
	}
	h.cands = cands
	return cands
}

// advanceRotation moves the synchronous rotation forward with wall time.
func (h *HotPotato) advanceRotation(now float64) {
	if !h.rotate {
		h.lastRotTime = now
		return
	}
	for now-h.lastRotTime >= h.tau-1e-12 {
		h.rotSteps++
		h.lastRotTime += h.tau
	}
}

func (h *HotPotato) freeSlotCount() int {
	total := 0
	for _, pn := range h.pinning.pins {
		if !pn.used {
			total++
		}
	}
	return total
}

// bestFreeSlot returns the position of the free slot of ring r that
// maximises the minimum circular distance to the ring's occupied slots
// (spreads heat sources), or -1 if the ring is full.
func (h *HotPotato) bestFreeSlot(r int) int {
	slots := h.ring(r)
	size := len(slots)
	best, bestScore := -1, -1
	for i := 0; i < size; i++ {
		if slots[i].used {
			continue
		}
		score := size // min distance to an occupied slot
		for j := 0; j < size; j++ {
			if !slots[j].used {
				continue
			}
			d := abs(i - j)
			if size-d < d {
				d = size - d
			}
			if d < score {
				score = d
			}
		}
		if score > bestScore {
			best, bestScore = h.ringStart[r]+i, score
		}
	}
	return best
}

// placeThread implements Algorithm 2 lines 1–14 for one new thread.
func (h *HotPotato) placeThread(st *sim.State, th *sim.ThreadInfo) {
	// Lines 2–6: inside-out ring scan; accept the first thermally safe ring.
	for r := range h.rings {
		pos := h.bestFreeSlot(r)
		if pos < 0 {
			continue
		}
		h.pinning.place(pos, th)
		if h.evalPeak(st) < h.tdtm-h.delta {
			return
		}
		h.pinning.unpin(pos)
	}

	// No ring is safe. Park the thread in the outermost ring with space,
	// then create headroom: push low-CPI threads outward (lines 8–11) and
	// shrink τ (lines 12–14).
	for r := len(h.rings) - 1; r >= 0; r-- {
		pos := h.bestFreeSlot(r)
		if pos < 0 {
			continue
		}
		h.pinning.place(pos, th)
		break
	}
	if !h.rotate {
		h.rotate = true
		h.tau = h.tauInit
	}
	h.pushOutward(st)
	h.tighten(st)
}

// pushOutward migrates the lowest-CPI (most compute-bound, least
// placement-sensitive) threads to higher-AMD rings until the configuration
// is safe or no move helps (Algorithm 2 lines 8–11).
func (h *HotPotato) pushOutward(st *sim.State) {
	for guard := 0; guard < 16; guard++ {
		if h.evalPeak(st) < h.tdtm-h.delta {
			return
		}
		cands := h.candidates(0, len(h.rings)-1)
		if len(cands) == 0 {
			return
		}
		slices.SortFunc(cands, byCPI)
		moved := false
		for _, c := range cands {
			for r := c.ring + 1; r < len(h.rings); r++ {
				pos := h.bestFreeSlot(r)
				if pos < 0 {
					continue
				}
				h.pinning.move(c.pos, pos)
				moved = true
				break
			}
			if moved {
				break
			}
		}
		if !moved {
			return
		}
	}
}

// tighten shrinks τ toward τ_min until the configuration is safe
// (Algorithm 2 lines 12–14).
func (h *HotPotato) tighten(st *sim.State) {
	if !h.rotate {
		h.rotate = true
		h.tau = h.tauInit
	}
	for h.tau > h.tauMin && h.evalPeak(st) >= h.tdtm-h.delta {
		h.tau /= 2
		if h.tau < h.tauMin {
			h.tau = h.tauMin
		}
	}
}

// rebalance implements Algorithm 2 lines 15–27: promote memory-bound threads
// inward while headroom allows, then relax τ — up to stopping rotation.
func (h *HotPotato) rebalance(st *sim.State) {
	// Promotions: highest CPI first (most to gain from a low-AMD ring).
	for guard := 0; guard < 16; guard++ {
		if h.evalPeak(st) >= h.tdtm-h.delta {
			break
		}
		cands := h.candidates(1, len(h.rings))
		slices.SortFunc(cands, byCPIDesc)
		promoted := false
		for _, c := range cands {
			for r := 0; r < c.ring; r++ {
				pos := h.bestFreeSlot(r)
				if pos < 0 {
					continue
				}
				h.pinning.move(c.pos, pos)
				if h.evalPeak(st) < h.tdtm-h.delta {
					promoted = true
					break
				}
				// Revert: promotion would burn the headroom.
				h.pinning.move(pos, c.pos)
			}
			if promoted {
				break
			}
		}
		if !promoted {
			break
		}
	}

	// τ relaxation (lines 23–27): slower rotation means fewer migrations;
	// stop rotating entirely when static placement is safe.
	if h.evalPeak(st) >= h.tdtm-h.delta {
		h.tighten(st)
		return
	}
	for h.rotate {
		if h.evalStaticPeak(st) < h.tdtm-h.delta {
			h.rotate = false
			break
		}
		next := h.tau * 2
		if next > h.tauMax {
			break
		}
		old := h.tau
		h.tau = next
		if h.evalPeak(st) >= h.tdtm-h.delta {
			h.tau = old
			break
		}
	}
}

// evalPeak estimates the rotation's steady-periodic peak temperature with
// Algorithm 1: each occupied ring is evaluated rotating explicitly while the
// other rings contribute their time-averaged power; the worst ring wins.
// Every ring is scored against the same background, so the evaluator's
// S·base image is computed once per call and each ring costs a response
// table lookup. Allocation-free once the tables are memoized.
//
// Every caller compares the result only against T_DTM − Δ, so the rotating
// estimate stops at the first ring, and within it at the first epoch, that
// reaches that limit: it then returns a value ≥ the limit, and below the
// limit it returns the full peak bit for bit (docs/THEORY.md §4).
func (h *HotPotato) evalPeak(st *sim.State) float64 {
	if !h.rotate {
		return h.evalStaticPeak(st)
	}
	idle := st.Platform.Power.IdleWatts

	// Ring means for the averaged background.
	ringMean, ringOccupied := h.ringMean, h.ringOccupied
	for r, ring := range h.rings {
		ringOccupied[r] = false
		total := 0.0
		for _, pn := range h.ring(r) {
			if pn.used {
				total += h.threadPower(pn.th.AvgPower)
				ringOccupied[r] = true
			} else {
				total += idle
			}
		}
		ringMean[r] = total / float64(len(ring.Cores))
	}

	// Constant background: every ring contributes its time-averaged power.
	base := h.base
	for i := range base {
		base[i] = idle
	}
	for r, ring := range h.rings {
		for _, c := range ring.Cores {
			base[c] = ringMean[r]
		}
	}

	peak := h.calc.Model().Ambient()
	limit := h.tdtm - h.delta
	slotWatts := h.slotWatts
	for r, ring := range h.rings {
		if !ringOccupied[r] {
			continue
		}
		slotWatts = slotWatts[:0]
		for _, pn := range h.ring(r) {
			w := idle
			if pn.used {
				w = h.threadPower(pn.th.AvgPower)
			}
			slotWatts = append(slotWatts, w)
		}
		t, err := h.ringEval.PeakRingRotationUntil(h.tau, base, ring.Cores, slotWatts, limit)
		if err != nil {
			// An invalid plan here is a programming error; fail safe by
			// reporting an unsafe temperature.
			return math.Inf(1)
		}
		if t > peak {
			peak = t
		}
		if peak >= limit {
			break
		}
	}
	return peak
}

// evalStaticPeak is the non-rotating (τ stopped) safety check: the
// steady-state peak of the pinned assignment. Allocation-free: it solves in
// scratch kept on the scheduler.
func (h *HotPotato) evalStaticPeak(st *sim.State) float64 {
	idle := st.Platform.Power.IdleWatts
	p := h.staticWatts
	for i := range p {
		p[i] = idle
	}
	for r := range h.rings {
		for i, pn := range h.ring(r) {
			if pn.used {
				p[h.coreOf(r, i)] = h.threadPower(pn.th.AvgPower)
			}
		}
	}
	m := h.calc.Model()
	m.SteadyStateInto(h.staticTemps, p, h.staticScratch)
	return m.MaxCoreTemp(h.staticTemps)
}

// threadPower is the Algorithm 1 power estimate for a thread whose 10 ms
// history average is avg (the simulator substitutes the conservative nominal
// power until a history exists), with the above-idle component rescaled by
// powerScale for frequency projection.
func (h *HotPotato) threadPower(avg float64) float64 {
	if h.powerScale == 1 || avg <= h.idleWatts {
		return avg
	}
	return h.idleWatts + float64((avg-h.idleWatts)*h.powerScale)
}

// cmpID orders thread IDs by task, then by thread within the task.
func cmpID(a, b sim.ThreadID) int {
	if c := cmp.Compare(a.Task, b.Task); c != 0 {
		return c
	}
	return cmp.Compare(a.Thread, b.Thread)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
