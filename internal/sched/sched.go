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

	"repro/internal/sim"
)

// taskGroup is a task's live threads, used for gang admission.
type taskGroup struct {
	taskID  int
	arrival float64
	threads []sim.ThreadInfo
}

// scratch holds the buffers the shared admission and migration helpers write
// into. A scheduler keeps one and reuses it every Decide, so a steady-state
// decision allocates nothing; what a helper returns stays valid until the
// next call of that helper on the same scratch.
type scratch struct {
	groups []taskGroup
	used   []bool
	free   []int
	byAMD  []int
	ids    []sim.ThreadID
}

// queuedTasks groups the queued (core == -1) threads by task, ordered FIFO by
// arrival time (ties broken by task ID). Gang admission: a task is admitted
// only when all of its threads fit at once, and tasks are never reordered —
// identical policy for every scheduler so comparisons are fair.
func (s *scratch) queuedTasks(st *sim.State) []taskGroup {
	groups := s.groups[:0]
	g := -1 // the group of the previous queued thread: a task's threads are usually adjacent
	for _, th := range st.Threads {
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
		slices.SortFunc(g.threads, func(a, b sim.ThreadInfo) int {
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

// dropDeparted deletes the threads that are no longer in st from m.
func dropDeparted[V any](st *sim.State, m map[sim.ThreadID]V) {
	for id := range m {
		if _, ok := st.Thread(id); !ok {
			delete(m, id)
		}
	}
}

// admitByAMD is the gang-FIFO admission of the cache-aware policies: each
// task of groups in turn maps its threads, in order, onto the lowest-AMD free
// cores. The first task that does not fit stops admission: head-of-line
// blocking keeps admission fair across schedulers.
func (s *scratch) admitByAMD(st *sim.State, assignment map[sim.ThreadID]int, groups []taskGroup) {
	n := st.Platform.NumCores()
	for _, group := range groups {
		free := s.coresByAMD(st, s.freeCores(n, assignment))
		if len(free) < len(group.threads) {
			return
		}
		for i, th := range group.threads {
			assignment[th.ID] = free[i]
		}
	}
}

// migrateHot is the asynchronous on-demand migration of PCMig and
// AsyncMigrate: every thread whose core has reached trigger moves to the coolest
// free core that is at least minGain cooler, and the core it vacates becomes
// free. Threads go in ID order — map order would make tie-breaks (and thus
// whole runs) irreproducible.
func (s *scratch) migrateHot(st *sim.State, assignment map[sim.ThreadID]int, trigger, minGain float64) {
	// Only a thread whose core is at the trigger moves, and a move makes no
	// other thread's core hot: without one (the common epoch) there is
	// nothing to order.
	if !anyCore(assignment, func(core int) bool { return !(st.CoreTemps[core] < trigger) }) {
		return
	}
	free := s.freeCores(st.Platform.NumCores(), assignment)
	for _, id := range s.sortedIDs(assignment) {
		core := assignment[id]
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
			assignment[id] = bestCore
		}
	}
}

// freeCores returns the cores not used by the given assignment, ascending.
func (s *scratch) freeCores(n int, assignment map[sim.ThreadID]int) []int {
	used := slices.Grow(s.used[:0], n)[:n]
	clear(used)
	for _, c := range assignment {
		used[c] = true
	}
	out := s.free[:0]
	for c := 0; c < n; c++ {
		if !used[c] {
			out = append(out, c)
		}
	}
	s.used, s.free = used, out
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

// sortedIDs returns the map's thread IDs in deterministic order.
func (s *scratch) sortedIDs(m map[sim.ThreadID]int) []sim.ThreadID {
	out := s.ids[:0]
	for id := range m {
		out = append(out, id)
	}
	slices.SortFunc(out, cmpID)
	s.ids = out
	return out
}

// anyCore reports whether some core of the assignment satisfies pred.
func anyCore(assignment map[sim.ThreadID]int, pred func(core int) bool) bool {
	for _, core := range assignment {
		if pred(core) {
			return true
		}
	}
	return false
}
