package sim

import (
	"testing"

	"repro/internal/workload"
)

// checkThreadLookup compares st.Thread with a map built from st.Threads for
// every listed thread plus IDs that are not there.
func checkThreadLookup(t *testing.T, label string, st *State) {
	t.Helper()
	want := make(map[ThreadID]ThreadInfo, len(st.Threads))
	for _, th := range st.Threads {
		want[th.ID] = th
	}
	for id, w := range want {
		got, ok := st.Thread(id)
		if !ok || got != w {
			t.Errorf("%s: Thread(%v) = %+v, %v; want %+v, true", label, id, got, ok, w)
		}
	}
	for _, id := range []ThreadID{{Task: 99, Thread: 0}, {Task: 0, Thread: 99}, {Task: -1, Thread: -1}} {
		if _, ok := want[id]; ok {
			continue
		}
		if got, ok := st.Thread(id); ok {
			t.Errorf("%s: Thread(%v) = %+v for an ID not in Threads", label, id, got)
		}
	}
}

// lookupChecker runs greedy placement and checks State.Thread on every
// engine-built State it is handed.
type lookupChecker struct {
	greedy
	t      *testing.T
	epochs int
}

func (c *lookupChecker) Decide(st *State) Decision {
	c.epochs++
	checkThreadLookup(c.t, "engine-built state", st)
	return c.greedy.Decide(st)
}

func TestStateThreadMatchesThreads(t *testing.T) {
	t.Run("engine-built", func(t *testing.T) {
		// Staggered arrivals and finishes grow and shrink the reused Threads
		// slice, so thread positions shift between epochs.
		plat := testPlatform(t, 4, 4)
		b, _ := workload.ByName("bodytrack")
		t1, _ := workload.NewTask(0, b, 3, 0, 0.05)
		t2, _ := workload.NewTask(1, b, 2, 1e-3, 0.2)
		t3, _ := workload.NewTask(2, b, 4, 2e-3, 0.1)
		checker := &lookupChecker{t: t}
		s, err := New(plat, DefaultConfig(), checker, []*workload.Task{t1, t2, t3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if checker.epochs < 10 {
			t.Fatalf("only %d epochs checked", checker.epochs)
		}
	})

	hand := func() *State {
		st := &State{}
		for i := 0; i < 6; i++ {
			st.Threads = append(st.Threads, ThreadInfo{
				ID: ThreadID{Task: i / 3, Thread: i % 3}, Core: i, AvgPower: float64(i) + 0.5,
			})
		}
		return st
	}
	for _, tc := range []struct {
		name string
		edit func(st *State)
	}{
		{"hand-built", func(*State) {}},
		{"resliced from the front", func(st *State) { st.Threads = st.Threads[2:] }},
		{"resliced from the back", func(st *State) { st.Threads = st.Threads[:3] }},
		{"emptied", func(st *State) { st.Threads = nil }},
		{"appended", func(st *State) {
			st.Threads = append(st.Threads, ThreadInfo{ID: ThreadID{Task: 7, Thread: 1}, AvgPower: 9})
		}},
		{"entry renamed", func(st *State) { st.Threads[4].ID = ThreadID{Task: 5, Thread: 5} }},
		{"entry edited", func(st *State) { st.Threads[1].AvgPower = 42 }},
		{"entries swapped", func(st *State) { st.Threads[0], st.Threads[5] = st.Threads[5], st.Threads[0] }},
		{"replaced", func(st *State) {
			st.Threads = []ThreadInfo{{ID: ThreadID{Task: 3, Thread: 0}}, {ID: ThreadID{Task: 0, Thread: 1}, Core: 9}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := hand()
			checkThreadLookup(t, "before the edit", st) // fills the index
			tc.edit(st)
			checkThreadLookup(t, "after the edit", st)
		})
	}
}
