package sim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/perf"
	"repro/internal/workload"
)

// ThreadID identifies one thread of one task.
type ThreadID struct {
	Task   int // workload.Task.ID
	Thread int // 0 = master
}

// MarshalText renders the ID as "task:thread", which also makes ThreadID
// usable as a JSON object key (pin maps in declarative scheduler specs).
func (id ThreadID) MarshalText() ([]byte, error) {
	return []byte(strconv.Itoa(id.Task) + ":" + strconv.Itoa(id.Thread)), nil
}

// String returns the "task:thread" form (same as MarshalText).
func (id ThreadID) String() string {
	return strconv.Itoa(id.Task) + ":" + strconv.Itoa(id.Thread)
}

// UnmarshalText parses the "task:thread" form produced by MarshalText.
func (id *ThreadID) UnmarshalText(text []byte) error {
	task, thread, ok := strings.Cut(string(text), ":")
	if !ok {
		return fmt.Errorf("sim: thread id %q not in task:thread form", text)
	}
	t, err := strconv.Atoi(task)
	if err != nil {
		return fmt.Errorf("sim: thread id %q: %w", text, err)
	}
	th, err := strconv.Atoi(thread)
	if err != nil {
		return fmt.Errorf("sim: thread id %q: %w", text, err)
	}
	*id = ThreadID{Task: t, Thread: th}
	return nil
}

// ThreadInfo is the scheduler-visible snapshot of one live thread.
type ThreadInfo struct {
	ID        ThreadID
	Benchmark string
	Perf      perf.Params
	// NominalWatts is the thread's active power at peak frequency — the
	// conservative fallback when no power history exists yet.
	NominalWatts float64
	State        workload.ThreadState
	// Core is the thread's current core, or -1 while queued.
	Core int
	// AvgPower is the time-weighted mean power over the last 10 ms the
	// thread attributably drew (paper §V); NominalWatts until history exists.
	AvgPower float64
	// CPI is the thread's effective cycles-per-instruction at peak frequency
	// on its current core (or the chip-median core while queued) — the
	// metric HotPotato sorts by in Algorithm 2.
	CPI float64
	// RemainingInstr is the work left across all phases.
	RemainingInstr float64
	// Arrival is the owning task's arrival time.
	Arrival float64
}

// State is the scheduler's view of one epoch. The engine owns it: one State,
// its Threads and its CoreTemps are refilled in place every epoch and are
// borrowed for the duration of the Decide call. A scheduler reads them and
// copies whatever it keeps; it must not retain the State or its slices.
type State struct {
	Time      float64
	CoreTemps []float64 // per-core silicon temperatures, °C
	Threads   []ThreadInfo
	Platform  *Platform
	TDTM      float64 // the DTM trip temperature the run enforces
	DTMActive bool
}

// Decision is the scheduler's answer: a thread→core mapping and per-core
// frequencies. Threads omitted from Assignment stay (or become) queued and
// make no progress. Cores may hold at most one thread.
//
// A Decision is borrowed from its scheduler, as State is from the engine:
// its Assignment map and Freq slice stay valid until the scheduler's next
// Decide, so a scheduler may return storage it owns and refill it then. A
// caller reads them before that call and copies whatever it keeps.
type Decision struct {
	Assignment map[ThreadID]int
	// Freq is the per-core frequency in Hz; nil means peak frequency on
	// every core. Values are clamped to the platform's DVFS ladder.
	Freq []float64
	// NextInvoke asks the simulator to call the scheduler again after this
	// many seconds (rounded up to slice granularity) unless an arrival or
	// finish event happens earlier. Zero selects the default epoch.
	NextInvoke float64
}

// Scheduler is the policy plug-in interface. Implementations live in
// internal/sched (HotPotato, PCMig, TSP, static policies). Decide borrows
// st for the duration of the call (see State); the returned Decision is in
// turn borrowed until the next call (see Decision), and the engine reads it
// before then and keeps no reference to it.
type Scheduler interface {
	Name() string
	Decide(st *State) Decision
}
