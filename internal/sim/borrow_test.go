package sim_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scribbler enforces the borrowed-Decision rule from the caller's side: at
// the start of every Decide, once the engine is done with the previous
// Decision, it overwrites that Decision's map and Freq slice with garbage.
// An engine that read a Decision past the scheduler's next Decide, or a
// scheduler that relied on what it returned staying intact, changes the run.
type scribbler struct {
	inner sim.Scheduler
	prev  sim.Decision
}

func (s *scribbler) Name() string { return s.inner.Name() }

func (s *scribbler) Decide(st *sim.State) sim.Decision {
	if s.prev.Assignment != nil {
		for id := range s.prev.Assignment {
			s.prev.Assignment[id] = -1
		}
		s.prev.Assignment[sim.ThreadID{Task: -1, Thread: -1}] = 0
	}
	for i := range s.prev.Freq {
		s.prev.Freq[i] = math.NaN()
	}
	s.prev = s.inner.Decide(st)
	return s.prev
}

func TestBorrowedDecisionsSurviveScribbling(t *testing.T) {
	plat, err := sim.NewPlatform(sim.DefaultPlatformConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	tasks := func() []*workload.Task {
		var out []*workload.Task
		for i, c := range []struct {
			bench   string
			threads int
			arrival float64
		}{
			{"blackscholes", 4, 0}, {"swaptions", 4, 2e-3}, {"canneal", 2, 4e-3},
			{"bodytrack", 8, 6e-3}, {"streamcluster", 4, 15e-3},
		} {
			b, err := workload.ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			task, err := workload.NewTask(i, b, c.threads, c.arrival, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, task)
		}
		return out
	}
	run := func(s sim.Scheduler) *sim.Result {
		sm, err := sim.New(plat, sim.DefaultConfig(), s, tasks())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sm.Run()
		if err != nil {
			t.Fatal(err)
		}
		res.SchedulerHostTime = 0
		return res
	}
	for _, c := range []struct {
		name string
		new  func() sim.Scheduler
	}{
		{"pcmig", func() sim.Scheduler { return sched.NewPCMig(70) }},
		{"hotpotato", func() sim.Scheduler { return sched.NewHotPotato(plat, 70) }},
		{"hotpotato-dvfs", func() sim.Scheduler { return sched.NewHotPotatoDVFS(plat, 70) }},
		{"async-migration", func() sim.Scheduler { return sched.NewAsyncMigrate(70) }},
		{"reactive", func() sim.Scheduler { return sched.NewReactive(70) }}, // steps frequencies, never migrates
	} {
		t.Run(c.name, func(t *testing.T) {
			want := run(c.new())
			got := run(&scribbler{inner: c.new()})
			if want.Migrations == 0 && c.name != "reactive" {
				t.Error("run made no migrations")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("scribbled run differs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
