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

	// slots[r][i] holds the thread occupying slot i of ring r (or empty).
	slots [][]slotEntry
	place map[sim.ThreadID]slotRef

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

	// estimator, when non-nil, pre-filters the per-ring Algorithm 1
	// evaluations (see RingPeakEstimator). estimatorHits/Fallbacks count the
	// outcomes for instrumentation.
	estimator          RingPeakEstimator
	estimatorHits      int
	estimatorFallbacks int

	// evalPeak scratch, sized at construction so a decision allocates
	// nothing for Algorithm 1's inputs.
	ringMean     []float64
	ringOccupied []bool
	base         []float64
	slotWatts    []float64

	// cands is the migration candidate list of pushOutward and rebalance,
	// reused across calls.
	cands []cand
}

// cand is a placed thread that may migrate, with its CPI.
type cand struct {
	id  sim.ThreadID
	cpi float64
}

// byCPI orders candidates by CPI, lowest first, then by thread ID. Thread
// IDs are unique and CPIs finite, so this is a total order: the unstable
// sort puts the candidates, which come from iterating a map, in one order
// every run.
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

type slotEntry struct {
	id   sim.ThreadID
	used bool
}

type slotRef struct{ ring, slot int }

// RingPeakEstimator is an optional surrogate for Algorithm 1's ring
// evaluation (the analytical-twin pre-filter): given the same inputs as
// rotation.RingEvaluator.PeakRingRotation, it returns a peak estimate, a
// conservative error bound, and whether the bound is backed by calibration
// evidence. HotPotato consults it per ring and only trusts an answer that is
// conclusive AND places the ring strictly on one side of the decision
// threshold T_DTM − Δ; everything else falls back to the exact evaluation,
// which keeps scheduling decisions bit-identical to stock HotPotato.
// Implementations must be safe for the scheduler's goroutine and must not
// allocate (the Decide path is allocation-audited).
type RingPeakEstimator interface {
	EstimateRingPeak(tau float64, base []float64, ringCores []int, slotWatts []float64) (peakC, boundC float64, conclusive bool)
}

// WithRingEstimator installs a twin-backed pre-filter for the Algorithm 1
// ring evaluations. A nil estimator (the default) is stock HotPotato.
func WithRingEstimator(e RingPeakEstimator) HotPotatoOption {
	return func(h *HotPotato) { h.estimator = e }
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
		place:          map[sim.ThreadID]slotRef{},
		rebalanceEvery: 5e-3,
		powerScale:     1,
		idleWatts:      plat.Power.IdleWatts,
		ringMean:       make([]float64, len(rings)),
		ringOccupied:   make([]bool, len(rings)),
		base:           make([]float64, plat.NumCores()),
	}
	h.slots = make([][]slotEntry, len(rings))
	maxRing := 0
	for r, ring := range rings {
		h.slots[r] = make([]slotEntry, len(ring.Cores))
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
	live := liveSet(st)

	// Departures free slots and create headroom (Algorithm 2 line 15).
	departed := false
	for id, ref := range h.place {
		if _, ok := live[id]; !ok {
			h.slots[ref.ring][ref.slot] = slotEntry{}
			delete(h.place, id)
			departed = true
		}
	}

	// Admissions (Algorithm 2 lines 1–14), gang FIFO per task.
	for _, group := range queuedTasks(st) {
		if h.freeSlotCount() < len(group.threads) {
			break
		}
		for _, th := range group.threads {
			h.placeThread(st, live, th)
		}
	}

	// Reactive safety: measured temperature near the threshold tightens τ
	// (the "sudden increase in thermal headroom demand" case). Rate-limited
	// so the evaluation cost stays off the per-epoch fast path.
	maxTemp := maxOf(st.CoreTemps)
	if maxTemp > h.tdtm-h.delta && st.Time-h.lastSafety >= 1e-3 {
		h.tighten(st, live)
		h.lastSafety = st.Time
	}

	if departed || st.Time-h.lastRebalance >= h.rebalanceEvery {
		h.rebalance(st, live)
		h.lastRebalance = st.Time
	}

	// Materialise the assignment with the current rotation offset.
	assignment := make(map[sim.ThreadID]int, len(h.place))
	for id, ref := range h.place {
		cores := h.rings[ref.ring].Cores
		idx := ref.slot
		if h.rotate {
			idx = (ref.slot + h.rotSteps) % len(cores)
		}
		assignment[id] = cores[idx]
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
	for r := range h.slots {
		for i := range h.slots[r] {
			if !h.slots[r][i].used {
				total++
			}
		}
	}
	return total
}

// bestFreeSlot picks the free slot of ring r that maximises the minimum
// circular distance to the ring's occupied slots (spreads heat sources).
func (h *HotPotato) bestFreeSlot(r int) int {
	size := len(h.slots[r])
	best, bestScore := -1, -1
	for i := 0; i < size; i++ {
		if h.slots[r][i].used {
			continue
		}
		score := size // min distance to an occupied slot
		for j := 0; j < size; j++ {
			if !h.slots[r][j].used {
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
			best, bestScore = i, score
		}
	}
	return best
}

// placeThread implements Algorithm 2 lines 1–14 for one new thread.
func (h *HotPotato) placeThread(st *sim.State, live map[sim.ThreadID]sim.ThreadInfo, th sim.ThreadInfo) {
	// Lines 2–6: inside-out ring scan; accept the first thermally safe ring.
	for r := range h.rings {
		slot := h.bestFreeSlot(r)
		if slot < 0 {
			continue
		}
		h.slots[r][slot] = slotEntry{id: th.ID, used: true}
		h.place[th.ID] = slotRef{r, slot}
		if h.evalPeak(st, live) < h.tdtm-h.delta {
			return
		}
		h.slots[r][slot] = slotEntry{}
		delete(h.place, th.ID)
	}

	// No ring is safe. Park the thread in the outermost ring with space,
	// then create headroom: push low-CPI threads outward (lines 8–11) and
	// shrink τ (lines 12–14).
	for r := len(h.rings) - 1; r >= 0; r-- {
		slot := h.bestFreeSlot(r)
		if slot < 0 {
			continue
		}
		h.slots[r][slot] = slotEntry{id: th.ID, used: true}
		h.place[th.ID] = slotRef{r, slot}
		break
	}
	if !h.rotate {
		h.rotate = true
		h.tau = h.tauInit
	}
	h.pushOutward(st, live)
	h.tighten(st, live)
}

// pushOutward migrates the lowest-CPI (most compute-bound, least
// placement-sensitive) threads to higher-AMD rings until the configuration
// is safe or no move helps (Algorithm 2 lines 8–11).
func (h *HotPotato) pushOutward(st *sim.State, live map[sim.ThreadID]sim.ThreadInfo) {
	for guard := 0; guard < 16; guard++ {
		if h.evalPeak(st, live) < h.tdtm-h.delta {
			return
		}
		cands := h.cands[:0]
		for id, ref := range h.place {
			if ref.ring < len(h.rings)-1 {
				cands = append(cands, cand{id, live[id].CPI})
			}
		}
		h.cands = cands
		if len(cands) == 0 {
			return
		}
		slices.SortFunc(cands, byCPI)
		moved := false
		for _, c := range cands {
			ref := h.place[c.id]
			for r := ref.ring + 1; r < len(h.rings); r++ {
				slot := h.bestFreeSlot(r)
				if slot < 0 {
					continue
				}
				h.slots[ref.ring][ref.slot] = slotEntry{}
				h.slots[r][slot] = slotEntry{id: c.id, used: true}
				h.place[c.id] = slotRef{r, slot}
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
func (h *HotPotato) tighten(st *sim.State, live map[sim.ThreadID]sim.ThreadInfo) {
	if !h.rotate {
		h.rotate = true
		h.tau = h.tauInit
	}
	for h.tau > h.tauMin && h.evalPeak(st, live) >= h.tdtm-h.delta {
		h.tau /= 2
		if h.tau < h.tauMin {
			h.tau = h.tauMin
		}
	}
}

// rebalance implements Algorithm 2 lines 15–27: promote memory-bound threads
// inward while headroom allows, then relax τ — up to stopping rotation.
func (h *HotPotato) rebalance(st *sim.State, live map[sim.ThreadID]sim.ThreadInfo) {
	// Promotions: highest CPI first (most to gain from a low-AMD ring).
	for guard := 0; guard < 16; guard++ {
		if h.evalPeak(st, live) >= h.tdtm-h.delta {
			break
		}
		cands := h.cands[:0]
		for id, ref := range h.place {
			if ref.ring > 0 {
				cands = append(cands, cand{id, live[id].CPI})
			}
		}
		h.cands = cands
		slices.SortFunc(cands, byCPIDesc)
		promoted := false
		for _, c := range cands {
			ref := h.place[c.id]
			for r := 0; r < ref.ring; r++ {
				slot := h.bestFreeSlot(r)
				if slot < 0 {
					continue
				}
				h.slots[ref.ring][ref.slot] = slotEntry{}
				h.slots[r][slot] = slotEntry{id: c.id, used: true}
				h.place[c.id] = slotRef{r, slot}
				if h.evalPeak(st, live) < h.tdtm-h.delta {
					promoted = true
					break
				}
				// Revert: promotion would burn the headroom.
				h.slots[r][slot] = slotEntry{}
				h.slots[ref.ring][ref.slot] = slotEntry{id: c.id, used: true}
				h.place[c.id] = ref
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
	if h.evalPeak(st, live) >= h.tdtm-h.delta {
		h.tighten(st, live)
		return
	}
	for h.rotate {
		if h.evalStaticPeak(st, live) < h.tdtm-h.delta {
			h.rotate = false
			break
		}
		next := h.tau * 2
		if next > h.tauMax {
			break
		}
		old := h.tau
		h.tau = next
		if h.evalPeak(st, live) >= h.tdtm-h.delta {
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
func (h *HotPotato) evalPeak(st *sim.State, live map[sim.ThreadID]sim.ThreadInfo) float64 {
	if !h.rotate {
		return h.evalStaticPeak(st, live)
	}
	idle := st.Platform.Power.IdleWatts

	// Ring means for the averaged background.
	ringMean, ringOccupied := h.ringMean, h.ringOccupied
	for r, ring := range h.rings {
		ringOccupied[r] = false
		total := 0.0
		for i := range h.slots[r] {
			if h.slots[r][i].used {
				total += h.threadPower(live, h.slots[r][i].id)
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
	slotWatts := h.slotWatts
	for r, ring := range h.rings {
		if !ringOccupied[r] {
			continue
		}
		slotWatts = slotWatts[:0]
		for _, entry := range h.slots[r] {
			w := idle
			if entry.used {
				w = h.threadPower(live, entry.id)
			}
			slotWatts = append(slotWatts, w)
		}
		// Twin pre-filter: every caller of evalPeak compares the result only
		// against the decision threshold T_DTM − Δ, so a conclusive estimate
		// that bounds this ring strictly under (est+bound) or at/over
		// (est−bound) the threshold can stand in for the exact evaluation
		// without changing any decision. Inconclusive or straddling answers
		// fall back to Algorithm 1 — the default, and the bit-identical path.
		if h.estimator != nil {
			limit := h.tdtm - h.delta
			est, bound, ok := h.estimator.EstimateRingPeak(h.tau, base, ring.Cores, slotWatts)
			if ok && (est+bound < limit || est-bound >= limit) {
				h.estimatorHits++
				if est > peak {
					peak = est
				}
				continue
			}
			h.estimatorFallbacks++
		}
		t, err := h.ringEval.PeakRingRotation(h.tau, base, ring.Cores, slotWatts)
		if err != nil {
			// An invalid plan here is a programming error; fail safe by
			// reporting an unsafe temperature.
			return math.Inf(1)
		}
		if t > peak {
			peak = t
		}
	}
	return peak
}

// EstimatorStats reports how many per-ring evaluations the twin pre-filter
// answered conclusively and how many fell back to the exact Algorithm 1 path.
func (h *HotPotato) EstimatorStats() (hits, fallbacks int) {
	return h.estimatorHits, h.estimatorFallbacks
}

// evalStaticPeak is the non-rotating (τ stopped) safety check: the
// steady-state peak of the pinned assignment.
func (h *HotPotato) evalStaticPeak(st *sim.State, live map[sim.ThreadID]sim.ThreadInfo) float64 {
	n := st.Platform.NumCores()
	idle := st.Platform.Power.IdleWatts
	p := make([]float64, n)
	for i := range p {
		p[i] = idle
	}
	for id, ref := range h.place {
		cores := h.rings[ref.ring].Cores
		idx := ref.slot
		if h.rotate {
			idx = (ref.slot + h.rotSteps) % len(cores)
		}
		p[cores[idx]] = h.threadPower(live, id)
	}
	ss := h.calc.Model().SteadyState(p)
	return h.calc.Model().MaxCoreTemp(ss)
}

// threadPower is the Algorithm 1 power estimate for a thread: its 10 ms
// history average (the simulator substitutes the conservative nominal power
// until a history exists), with the above-idle component rescaled by
// powerScale for frequency projection.
func (h *HotPotato) threadPower(live map[sim.ThreadID]sim.ThreadInfo, id sim.ThreadID) float64 {
	th, ok := live[id]
	if !ok {
		return 0
	}
	if h.powerScale == 1 {
		return th.AvgPower
	}
	if th.AvgPower <= h.idleWatts {
		return th.AvgPower
	}
	return h.idleWatts + (th.AvgPower-h.idleWatts)*h.powerScale
}

func less(a, b sim.ThreadID) bool {
	if a.Task != b.Task {
		return a.Task < b.Task
	}
	return a.Thread < b.Thread
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
