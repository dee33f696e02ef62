package hotpotato

// registry.go is the single place a scheduler policy name is interpreted:
// one name→constructor table behind SchedulerNames and NewSchedulerFromSpec.
// The CLIs and the HTTP service all construct schedulers through it, so the
// set of supported policies (and every help string derived from
// SchedulerNames) can never drift between entry points again.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sched"
)

// SchedulerSpec declares a scheduler by name plus its knobs — the
// serializable counterpart of the New*Scheduler constructors. Every knob is
// optional; a zero value keeps the policy's paper default, so the minimal
// useful spec is just {"name": "hotpotato", "tdtm": 70}.
type SchedulerSpec struct {
	// Name selects the policy; SchedulerNames lists the valid values.
	Name string `json:"name"`
	// TDTM is the thermal threshold (°C) handed to the thermally-aware
	// policies. ExecuteSpec defaults it to the run's SimConfig.TDTM when
	// zero, so a RunSpec states the threshold once.
	TDTM float64 `json:"tdtm,omitempty"`
	// Tau is the rotation interval in seconds (hotpotato, hotpotato-dvfs,
	// rotation). Zero keeps the default 0.5 ms.
	Tau float64 `json:"tau,omitempty"`
	// TauMin and TauMax bound HotPotato's τ adaptation (defaults
	// 0.125–4 ms). Set both or neither.
	TauMin float64 `json:"tau_min,omitempty"`
	TauMax float64 `json:"tau_max,omitempty"`
	// Headroom is HotPotato's Δ in °C (default 1).
	Headroom float64 `json:"headroom,omitempty"`
	// RebalanceEvery is HotPotato's idle re-evaluation period (default 5 ms).
	RebalanceEvery float64 `json:"rebalance_every,omitempty"`
	// Epoch and Margin tune the PCMig baseline (defaults 1 ms, 2 K).
	Epoch  float64 `json:"epoch,omitempty"`
	Margin float64 `json:"margin,omitempty"`
	// Freq is the fixed frequency of the static policy in Hz (0 = peak).
	Freq float64 `json:"freq,omitempty"`
	// Pins maps threads to cores (static, tsp) or to rotation slots
	// (rotation). JSON object keys are "task:thread". When empty, AutoPin
	// (called by ExecuteSpec and the CLIs) derives a deterministic pinning.
	Pins map[ThreadID]int `json:"pins,omitempty"`
	// Cores is the rotation core cycle in walk order (rotation only).
	// Empty means the innermost floorplan ring, via AutoPin.
	Cores []int `json:"cores,omitempty"`
}

// schedulerRegistry is the one table naming every supported policy.
var schedulerRegistry = map[string]func(*Platform, SchedulerSpec) (Scheduler, error){
	"hotpotato": func(p *Platform, s SchedulerSpec) (Scheduler, error) {
		opts, err := s.hotPotatoOptions()
		if err != nil {
			return nil, err
		}
		if err := s.needTDTM(); err != nil {
			return nil, err
		}
		return sched.NewHotPotato(p, s.TDTM, opts...), nil
	},
	"hotpotato-dvfs": func(p *Platform, s SchedulerSpec) (Scheduler, error) {
		opts, err := s.hotPotatoOptions()
		if err != nil {
			return nil, err
		}
		if err := s.needTDTM(); err != nil {
			return nil, err
		}
		return sched.NewHotPotatoDVFS(p, s.TDTM, opts...), nil
	},
	"pcmig": func(_ *Platform, s SchedulerSpec) (Scheduler, error) {
		if err := s.needTDTM(); err != nil {
			return nil, err
		}
		var opts []PCMigOption
		if s.Epoch > 0 {
			opts = append(opts, sched.WithPCMigEpoch(s.Epoch))
		}
		if s.Margin > 0 {
			opts = append(opts, sched.WithPCMigMargin(s.Margin))
		}
		return sched.NewPCMig(s.TDTM, opts...), nil
	},
	"tsp": func(_ *Platform, s SchedulerSpec) (Scheduler, error) {
		if err := s.needTDTM(); err != nil {
			return nil, err
		}
		if err := s.needPins(); err != nil {
			return nil, err
		}
		return sched.NewTSPGovernor(s.Pins, s.TDTM), nil
	},
	"static": func(_ *Platform, s SchedulerSpec) (Scheduler, error) {
		if err := s.needPins(); err != nil {
			return nil, err
		}
		return sched.NewStatic(s.Pins, s.Freq), nil
	},
	"rotation": func(_ *Platform, s SchedulerSpec) (Scheduler, error) {
		if err := s.needPins(); err != nil {
			return nil, err
		}
		if len(s.Cores) == 0 {
			return nil, fmt.Errorf("hotpotato: scheduler %q needs a core cycle (set Cores or use AutoPin)", s.Name)
		}
		tau := s.Tau
		if tau == 0 {
			tau = 0.5e-3
		}
		return sched.NewRotationStatic(s.Pins, s.Cores, tau)
	},
	"async-migration": func(_ *Platform, s SchedulerSpec) (Scheduler, error) {
		if err := s.needTDTM(); err != nil {
			return nil, err
		}
		return sched.NewAsyncMigrate(s.TDTM), nil
	},
	"reactive": func(_ *Platform, s SchedulerSpec) (Scheduler, error) {
		if err := s.needTDTM(); err != nil {
			return nil, err
		}
		return sched.NewReactive(s.TDTM), nil
	},
}

func (s SchedulerSpec) needTDTM() error {
	if s.TDTM <= 0 {
		return fmt.Errorf("hotpotato: scheduler %q needs a positive TDTM, got %g", s.Name, s.TDTM)
	}
	return nil
}

func (s SchedulerSpec) needPins() error {
	if len(s.Pins) == 0 {
		return fmt.Errorf("hotpotato: scheduler %q needs a pin map (set Pins or use AutoPin)", s.Name)
	}
	return nil
}

func (s SchedulerSpec) hotPotatoOptions() ([]HotPotatoOption, error) {
	var opts []HotPotatoOption
	if s.Tau > 0 {
		opts = append(opts, WithRotationInterval(s.Tau))
	}
	switch {
	case s.TauMin > 0 && s.TauMax > 0:
		opts = append(opts, WithRotationBounds(s.TauMin, s.TauMax))
	case s.TauMin != 0 || s.TauMax != 0:
		return nil, fmt.Errorf("hotpotato: scheduler %q needs both rotation bounds or neither (tau_min=%g tau_max=%g)",
			s.Name, s.TauMin, s.TauMax)
	}
	if s.Headroom > 0 {
		opts = append(opts, WithHeadroom(s.Headroom))
	}
	if s.RebalanceEvery > 0 {
		opts = append(opts, sched.WithRebalanceEvery(s.RebalanceEvery))
	}
	return opts, nil
}

// SchedulerNames returns the sorted names of every registered policy — the
// authoritative list behind CLI help strings and API error messages.
func SchedulerNames() []string {
	names := make([]string, 0, len(schedulerRegistry))
	for name := range schedulerRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewSchedulerFromSpec builds a fresh scheduler instance from its declarative
// spec. Like every scheduler constructor, the result is stateful and
// single-run: build one per Simulation. Specs for pin-based policies
// (static, tsp, rotation) must carry pins — use AutoPin to derive them from a
// workload, as ExecuteSpec does.
func NewSchedulerFromSpec(plat *Platform, spec SchedulerSpec) (Scheduler, error) {
	ctor, ok := schedulerRegistry[spec.Name]
	if !ok {
		return nil, fmt.Errorf("hotpotato: unknown scheduler %q (have %s)",
			spec.Name, strings.Join(SchedulerNames(), ", "))
	}
	return ctor(plat, spec)
}

// AutoPin returns a copy of spec with the pin map (and, for rotation, the
// core cycle) filled in when empty, using one deterministic placement shared
// by hotpotato-sim and RunSpec execution: threads are pinned over the
// platform's rings innermost-first in task order, and rotation slots spread
// evenly over the rotation cycle. Specs that already carry pins, and
// policies that take none, are returned unchanged.
func (s SchedulerSpec) AutoPin(plat *Platform, tasks []*Task) (SchedulerSpec, error) {
	switch s.Name {
	case "static", "tsp":
		if len(s.Pins) > 0 {
			return s, nil
		}
		ids := taskThreadIDs(tasks)
		cores := ringOrderedCores(plat)
		if len(ids) > len(cores) {
			return SchedulerSpec{}, fmt.Errorf("hotpotato: cannot auto-pin %d threads onto %d cores", len(ids), len(cores))
		}
		s.Pins = make(map[ThreadID]int, len(ids))
		for i, id := range ids {
			s.Pins[id] = cores[i]
		}
	case "rotation":
		if len(s.Cores) == 0 {
			s.Cores = append([]int(nil), plat.FP.Rings()[0].Cores...)
		}
		if len(s.Pins) == 0 {
			ids := taskThreadIDs(tasks)
			n := len(ids)
			if n == 0 {
				n = 1
			}
			s.Pins = make(map[ThreadID]int, len(ids))
			for i, id := range ids {
				s.Pins[id] = (i * len(s.Cores) / n) % len(s.Cores)
			}
		}
	}
	return s, nil
}

// taskThreadIDs enumerates every thread of tasks in task order — the
// deterministic ordering AutoPin pins by.
func taskThreadIDs(tasks []*Task) []ThreadID {
	var ids []ThreadID
	for _, t := range tasks {
		for ti := 0; ti < t.Threads; ti++ {
			ids = append(ids, ThreadID{Task: t.ID, Thread: ti})
		}
	}
	return ids
}

// ringOrderedCores lists every core innermost-ring-first — the AMD order
// static pinnings have always used.
func ringOrderedCores(plat *Platform) []int {
	var cores []int
	for _, ring := range plat.FP.Rings() {
		cores = append(cores, ring.Cores...)
	}
	return cores
}
