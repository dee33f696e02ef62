// Package sched implements the thread schedulers of the paper's evaluation:
//
//   - Static: pinned mapping at a fixed frequency (the unmanaged Fig. 2(a)
//     execution);
//   - RotationStatic: fixed synchronous rotation over a core set at a fixed
//     interval (the Fig. 2(c) execution);
//   - TSPGovernor: TSP [14] power budgeting via chip-wide DVFS on a pinned
//     mapping (the Fig. 2(b) execution);
//   - PCMig: the state-of-the-art baseline [10], [21] — cache-aware mapping,
//     TSP-based per-core DVFS, and asynchronous on-demand migrations;
//   - HotPotato: the paper's contribution (Algorithm 2) — AMD-ring
//     synchronous rotation driven by the analytical peak-temperature method
//     of Algorithm 1, without DVFS.
package sched

import (
	"cmp"
	"slices"

	"repro/internal/power"
	"repro/internal/sim"
)

// taskGroup is a task's live threads, used for gang admission. The threads
// point into the State of the Decide that grouped them.
type taskGroup struct {
	taskID  int
	arrival float64
	threads []*sim.ThreadInfo
}

// scratch holds the buffers the shared admission and migration helpers write
// into. A scheduler keeps one and reuses it every Decide, so a steady-state
// decision allocates nothing; what a helper returns stays valid until the
// next call of that helper on the same scratch.
type scratch struct {
	groups []taskGroup
	free   []int
	byAMD  []int
	byID   []int
}

// pinning is the thread table of every scheduler that keeps one, kept per
// position. For the cache-aware policies (PCMig, AsyncMigrate, Reactive) a
// position is a core; for HotPotato it is a ring slot. Its one ID-keyed
// table, core, is looked up once per live thread per Decide, by sync; every
// later step reads and moves the per-position pins.
type pinning struct {
	core map[sim.ThreadID]int
	pins []pin
}

// pin is what a position holds: a thread, the thread's entry in the current
// Decide's State (set by sync or place, read only within that Decide), and,
// for PCMig, the DVFS level it chose for the thread the epoch before. A
// migration moves the whole pin.
type pin struct {
	id      sim.ThreadID
	th      *sim.ThreadInfo
	used    bool
	leveled bool
	level   power.Level
}

func newPinning() pinning { return pinning{core: map[sim.ThreadID]int{}} }

// sync points every pin at its thread's entry in st, unpins the threads
// that are no longer there and reports whether there were any.
func (p *pinning) sync(st *sim.State) (departed bool) {
	if n := st.Platform.NumCores(); len(p.pins) != n {
		p.pins = make([]pin, n)
		clear(p.core)
	}
	for c := range p.pins {
		p.pins[c].th = nil
	}
	found := 0
	for i := range st.Threads {
		th := &st.Threads[i]
		if c, ok := p.core[th.ID]; ok {
			if p.pins[c].th == nil {
				found++
			}
			p.pins[c].th = th
		}
	}
	if found == len(p.core) {
		return false
	}
	for c, pn := range p.pins {
		if pn.used && pn.th == nil {
			p.unpin(c)
		}
	}
	return true
}

// place pins thread th to the free position c. A thread pinned elsewhere
// leaves its old position.
func (p *pinning) place(c int, th *sim.ThreadInfo) {
	if old, ok := p.core[th.ID]; ok {
		p.pins[old] = pin{}
	}
	p.pins[c] = pin{id: th.ID, used: true, th: th}
	p.core[th.ID] = c
}

// unpin frees position c and drops its thread from the ID table.
func (p *pinning) unpin(c int) {
	delete(p.core, p.pins[c].id)
	p.pins[c] = pin{}
}

// move takes the pin of position from to the free position to.
func (p *pinning) move(from, to int) {
	p.pins[to] = p.pins[from]
	p.pins[from] = pin{}
	p.core[p.pins[to].id] = to
}

// fill refills out with the pinned thread→core mapping.
func (p *pinning) fill(out map[sim.ThreadID]int) {
	clear(out)
	for c, pn := range p.pins {
		if pn.used {
			out[pn.id] = c
		}
	}
}

// anyCore reports whether some pinned core satisfies pred.
func (p *pinning) anyCore(pred func(core int) bool) bool {
	for c, pn := range p.pins {
		if pn.used && pred(c) {
			return true
		}
	}
	return false
}

// active refills buf with one flag per core: whether a thread is pinned there.
func (p *pinning) active(buf []bool) []bool {
	buf = buf[:0]
	for _, pn := range p.pins {
		buf = append(buf, pn.used)
	}
	return buf
}

// queuedTasks groups the queued (core == -1) threads by task, ordered FIFO by
// arrival time (ties broken by task ID). Gang admission: a task is admitted
// only when all of its threads fit at once, and tasks are never reordered —
// identical policy for every scheduler so comparisons are fair.
func (s *scratch) queuedTasks(st *sim.State) []taskGroup {
	groups := s.groups[:0]
	g := -1 // the group of the previous queued thread: a task's threads are usually adjacent
	for i := range st.Threads {
		th := &st.Threads[i]
		if th.Core >= 0 {
			continue
		}
		if g < 0 || groups[g].taskID != th.ID.Task {
			g = slices.IndexFunc(groups, func(tg taskGroup) bool { return tg.taskID == th.ID.Task })
		}
		if g < 0 {
			// Reuse the thread storage a group of an earlier call left behind.
			groups = slices.Grow(groups, 1)[:len(groups)+1]
			g = len(groups) - 1
			groups[g] = taskGroup{taskID: th.ID.Task, arrival: th.Arrival, threads: groups[g].threads[:0]}
		}
		groups[g].threads = append(groups[g].threads, th)
	}
	for _, g := range groups {
		// Workers first (ascending), master last: workers execute the
		// parallel bulk of a task, so when cores differ in quality the
		// workers should claim the better ones. Both schedulers share this
		// order, keeping the comparison about thermal policy, not placement
		// luck.
		slices.SortFunc(g.threads, func(a, b *sim.ThreadInfo) int {
			ta, tb := a.ID.Thread, b.ID.Thread
			if (ta == 0) != (tb == 0) {
				if ta == 0 {
					return 1
				}
				return -1
			}
			return cmp.Compare(ta, tb)
		})
	}
	slices.SortFunc(groups, func(a, b taskGroup) int {
		if c := cmp.Compare(a.arrival, b.arrival); c != 0 {
			return c
		}
		return cmp.Compare(a.taskID, b.taskID)
	})
	s.groups = groups
	return groups
}

// admitByAMD is the gang-FIFO admission of the cache-aware policies: each
// task of groups in turn maps its threads, in order, onto the lowest-AMD free
// cores. The first task that does not fit stops admission: head-of-line
// blocking keeps admission fair across schedulers.
func (s *scratch) admitByAMD(st *sim.State, p *pinning, groups []taskGroup) {
	for _, group := range groups {
		free := s.coresByAMD(st, s.freeCores(p))
		if len(free) < len(group.threads) {
			return
		}
		for i, th := range group.threads {
			p.place(free[i], th)
		}
	}
}

// migrateHot is the asynchronous on-demand migration of PCMig and
// AsyncMigrate: every thread whose core has reached trigger moves to the coolest
// free core that is at least minGain cooler, and the core it vacates becomes
// free. Threads go in ID order — map order would make tie-breaks (and thus
// whole runs) irreproducible.
func (s *scratch) migrateHot(st *sim.State, p *pinning, trigger, minGain float64) {
	// Only a thread whose core is at the trigger moves, and a move makes no
	// other thread's core hot: without one (the common epoch) there is
	// nothing to order.
	if !p.anyCore(func(core int) bool { return !(st.CoreTemps[core] < trigger) }) {
		return
	}
	free := s.freeCores(p)
	// A thread moves only on its own turn, and only to a free core, so the
	// cores gathered here stay each unvisited thread's core.
	for _, core := range s.coresByID(p) {
		if st.CoreTemps[core] < trigger {
			continue
		}
		bestCore, bestTemp, bestIdx := -1, st.CoreTemps[core]-minGain, -1
		for i, c := range free {
			if st.CoreTemps[c] < bestTemp {
				bestCore, bestTemp, bestIdx = c, st.CoreTemps[c], i
			}
		}
		if bestCore >= 0 {
			free[bestIdx] = core
			p.move(core, bestCore)
		}
	}
}

// freeCores returns the cores no thread is pinned to, ascending.
func (s *scratch) freeCores(p *pinning) []int {
	out := s.free[:0]
	for c, pn := range p.pins {
		if !pn.used {
			out = append(out, c)
		}
	}
	s.free = out
	return out
}

// coresByAMD returns core IDs sorted by ascending AMD (ties by ID).
func (s *scratch) coresByAMD(st *sim.State, cores []int) []int {
	fp := st.Platform.FP
	out := append(s.byAMD[:0], cores...)
	slices.SortFunc(out, func(a, b int) int {
		if c := cmp.Compare(fp.AMD(a), fp.AMD(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.byAMD = out
	return out
}

// coresByID returns the pinned cores ordered by their threads' IDs: the
// deterministic order in which threads take their turns.
func (s *scratch) coresByID(p *pinning) []int {
	out := s.byID[:0]
	for c, pn := range p.pins {
		if pn.used {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b int) int { return cmpID(p.pins[a].id, p.pins[b].id) })
	s.byID = out
	return out
}
