package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/power"
	"repro/internal/workload"
)

// Config controls one simulation run.
type Config struct {
	// TimeSlice is the integration/accounting step (seconds).
	TimeSlice float64 `json:"time_slice"`
	// SchedulerEpoch is the default scheduler cadence when a Decision leaves
	// NextInvoke at zero (paper §VI: 0.5 ms rotation epochs).
	SchedulerEpoch float64 `json:"scheduler_epoch"`
	// TDTM is the DTM trip temperature in °C (paper §VI: 70).
	TDTM float64 `json:"tdtm"`
	// DTMEnabled engages the hardware thermal protection. The motivational
	// Fig. 2(a) trace runs with it disabled to expose the violation.
	DTMEnabled bool `json:"dtm_enabled"`
	// DTMPerCore throttles only the cores above the threshold instead of
	// crashing the whole chip's frequency (the paper describes chip-wide
	// DTM, the default; modern parts often throttle per core).
	DTMPerCore bool `json:"dtm_per_core"`
	// DTMThrottleFreq is the chip-wide frequency DTM crashes to (Hz).
	DTMThrottleFreq float64 `json:"dtm_throttle_freq"`
	// DTMHysteresis is how far below TDTM the chip must cool before DTM
	// releases (K).
	DTMHysteresis float64 `json:"dtm_hysteresis"`
	// MaxTime aborts runaway simulations (seconds of simulated time).
	MaxTime float64 `json:"max_time"`
	// HistoryWindow is the per-thread power history span (paper §V: 10 ms).
	HistoryWindow float64 `json:"history_window"`
	// SensorNoiseStdDev injects zero-mean Gaussian error (K) into the core
	// temperatures the *scheduler* observes, modelling real thermal-sensor
	// inaccuracy. The physics and the hardware DTM see true temperatures.
	// Zero disables the noise.
	SensorNoiseStdDev float64 `json:"sensor_noise_std_dev,omitempty"`
	// SensorNoiseSeed makes the injected noise reproducible.
	SensorNoiseSeed int64 `json:"sensor_noise_seed,omitempty"`
	// NoCContention enables the load-dependent memory latency model: the
	// chip's aggregate LLC access rate drives an M/M/1 queueing factor on
	// every access (interval-simulation style, one damped fixed-point
	// iteration per slice). Off by default — the paper's evaluation regime
	// is thermally, not bandwidth, limited.
	NoCContention bool `json:"noc_contention,omitempty"`
}

// DefaultConfig returns the evaluation configuration of §VI.
func DefaultConfig() Config {
	return Config{
		TimeSlice:       0.1e-3,
		SchedulerEpoch:  0.5e-3,
		TDTM:            70,
		DTMEnabled:      true,
		DTMThrottleFreq: 1.0e9,
		DTMHysteresis:   2,
		MaxTime:         30,
		HistoryWindow:   power.DefaultWindow,
	}
}

// Validate checks the configuration and reports every violated constraint at
// once (errors.Join), so a declarative caller can fix all fields in one pass.
func (c Config) Validate() error {
	var errs []error
	if c.TimeSlice <= 0 {
		errs = append(errs, fmt.Errorf("sim: TimeSlice must be positive, got %g", c.TimeSlice))
	} else if c.SchedulerEpoch < c.TimeSlice {
		errs = append(errs, fmt.Errorf("sim: SchedulerEpoch %g below TimeSlice %g", c.SchedulerEpoch, c.TimeSlice))
	}
	if c.TDTM <= 0 {
		errs = append(errs, fmt.Errorf("sim: TDTM must be positive, got %g", c.TDTM))
	}
	if c.DTMThrottleFreq <= 0 {
		errs = append(errs, fmt.Errorf("sim: DTM throttle frequency must be positive, got %g", c.DTMThrottleFreq))
	}
	if c.DTMHysteresis < 0 {
		errs = append(errs, fmt.Errorf("sim: DTM hysteresis must be non-negative, got %g", c.DTMHysteresis))
	}
	if c.MaxTime <= 0 {
		errs = append(errs, fmt.Errorf("sim: MaxTime must be positive, got %g", c.MaxTime))
	}
	if c.HistoryWindow <= 0 {
		errs = append(errs, fmt.Errorf("sim: HistoryWindow must be positive, got %g", c.HistoryWindow))
	}
	if c.SensorNoiseStdDev < 0 {
		errs = append(errs, fmt.Errorf("sim: sensor noise must be non-negative, got %g", c.SensorNoiseStdDev))
	}
	return errors.Join(errs...)
}

// ErrTimeout reports that the simulation hit Config.MaxTime before all tasks
// finished.
var ErrTimeout = errors.New("sim: simulation exceeded MaxTime")

// ErrCanceled reports that a RunContext was cancelled before all tasks
// finished. The partial Result accompanying it is valid up to the moment of
// cancellation.
var ErrCanceled = errors.New("sim: run canceled")

// TaskStat records per-task outcome.
type TaskStat struct {
	ID        int
	Benchmark string
	Threads   int
	Arrival   float64
	Start     float64 // first instruction executed; -1 if never started
	Finish    float64 // completion time; -1 if unfinished at timeout
	Response  float64 // Finish − Arrival; NaN if unfinished
}

// taskStatJSON is the wire form of TaskStat. JSON has no NaN, so the
// unfinished-task sentinel Response=NaN travels as null.
type taskStatJSON struct {
	ID        int      `json:"id"`
	Benchmark string   `json:"benchmark"`
	Threads   int      `json:"threads"`
	Arrival   float64  `json:"arrival"`
	Start     float64  `json:"start"`
	Finish    float64  `json:"finish"`
	Response  *float64 `json:"response"`
}

// MarshalJSON implements json.Marshaler; a NaN Response becomes null.
func (t TaskStat) MarshalJSON() ([]byte, error) {
	j := taskStatJSON{
		ID: t.ID, Benchmark: t.Benchmark, Threads: t.Threads,
		Arrival: t.Arrival, Start: t.Start, Finish: t.Finish,
	}
	if !math.IsNaN(t.Response) && !math.IsInf(t.Response, 0) {
		j.Response = &t.Response
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler (inverse of MarshalJSON).
func (t *TaskStat) UnmarshalJSON(b []byte) error {
	var j taskStatJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*t = TaskStat{
		ID: j.ID, Benchmark: j.Benchmark, Threads: j.Threads,
		Arrival: j.Arrival, Start: j.Start, Finish: j.Finish,
		Response: math.NaN(),
	}
	if j.Response != nil {
		t.Response = *j.Response
	}
	return nil
}

// Result is the outcome of a run.
type Result struct {
	Scheduler     string
	SimulatedTime float64
	Makespan      float64 // latest task finish time
	AvgResponse   float64
	MaxResponse   float64
	// AvgWait is the mean queueing delay (first execution − arrival) of
	// finished tasks — the open-system congestion signal of Fig. 4(b).
	AvgWait              float64
	Tasks                []TaskStat
	PeakTemp             float64 // hottest core temperature ever observed
	DTMTime              float64 // seconds spent throttled by DTM
	DTMEvents            int
	Migrations           int
	EnergyJ              float64 // core energy
	SchedulerInvocations int
	SchedulerHostTime    time.Duration // wall-clock spent inside Decide
}

// resultJSON is the wire form of Result. PeakTemp starts at −Inf and stays
// there if a run is cancelled before its first slice, so it travels as a
// nullable field; SchedulerHostTime is explicit nanoseconds.
type resultJSON struct {
	Scheduler            string     `json:"scheduler"`
	SimulatedTime        float64    `json:"simulated_time"`
	Makespan             float64    `json:"makespan"`
	AvgResponse          float64    `json:"avg_response"`
	MaxResponse          float64    `json:"max_response"`
	AvgWait              float64    `json:"avg_wait"`
	Tasks                []TaskStat `json:"tasks"`
	PeakTemp             *float64   `json:"peak_temp"`
	DTMTime              float64    `json:"dtm_time"`
	DTMEvents            int        `json:"dtm_events"`
	Migrations           int        `json:"migrations"`
	EnergyJ              float64    `json:"energy_j"`
	SchedulerInvocations int        `json:"scheduler_invocations"`
	SchedulerHostTimeNS  int64      `json:"scheduler_host_time_ns"`
}

// MarshalJSON implements json.Marshaler; non-finite PeakTemp becomes null.
func (r Result) MarshalJSON() ([]byte, error) {
	j := resultJSON{
		Scheduler: r.Scheduler, SimulatedTime: r.SimulatedTime,
		Makespan: r.Makespan, AvgResponse: r.AvgResponse,
		MaxResponse: r.MaxResponse, AvgWait: r.AvgWait, Tasks: r.Tasks,
		DTMTime: r.DTMTime, DTMEvents: r.DTMEvents, Migrations: r.Migrations,
		EnergyJ: r.EnergyJ, SchedulerInvocations: r.SchedulerInvocations,
		SchedulerHostTimeNS: r.SchedulerHostTime.Nanoseconds(),
	}
	if !math.IsNaN(r.PeakTemp) && !math.IsInf(r.PeakTemp, 0) {
		j.PeakTemp = &r.PeakTemp
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler (inverse of MarshalJSON).
func (r *Result) UnmarshalJSON(b []byte) error {
	var j resultJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*r = Result{
		Scheduler: j.Scheduler, SimulatedTime: j.SimulatedTime,
		Makespan: j.Makespan, AvgResponse: j.AvgResponse,
		MaxResponse: j.MaxResponse, AvgWait: j.AvgWait, Tasks: j.Tasks,
		PeakTemp: math.Inf(-1), DTMTime: j.DTMTime, DTMEvents: j.DTMEvents,
		Migrations: j.Migrations, EnergyJ: j.EnergyJ,
		SchedulerInvocations: j.SchedulerInvocations,
		SchedulerHostTime:    time.Duration(j.SchedulerHostTimeNS),
	}
	if j.PeakTemp != nil {
		r.PeakTemp = *j.PeakTemp
	}
	return nil
}

// TraceFunc observes every simulation slice (for Fig. 2 style traces): the
// true per-core temperatures, the power each core drew over the slice and
// its frequency after DTM throttling. The three slices are engine-owned
// buffers, valid only during the call; copy what must outlive it.
type TraceFunc func(t float64, coreTemps, coreWatts, coreFreq []float64)

// Simulator runs one workload under one scheduler on one platform.
type Simulator struct {
	plat    *Platform
	cfg     Config
	sched   Scheduler
	tasks   []*workload.Task
	trace   TraceFunc
	tracers []obs.Tracer
}

// New prepares a simulation. Tasks may arrive at any time ≥ 0; they are
// admitted as simulated time passes their arrivals.
func New(plat *Platform, cfg Config, sched Scheduler, tasks []*workload.Task) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("sim: scheduler is nil")
	}
	if len(tasks) == 0 {
		return nil, errors.New("sim: no tasks")
	}
	sorted := append([]*workload.Task(nil), tasks...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Arrival != sorted[b].Arrival {
			return sorted[a].Arrival < sorted[b].Arrival
		}
		return sorted[a].ID < sorted[b].ID
	})
	return &Simulator{plat: plat, cfg: cfg, sched: sched, tasks: sorted}, nil
}

// SetTrace installs a per-slice observer. Must be called before Run.
func (s *Simulator) SetTrace(fn TraceFunc) { s.trace = fn }

// SetEpochTracer installs the per-epoch observers, replacing earlier ones
// and dropping nil entries. Each receives one borrowed obs.EpochEvent per
// scheduler invocation (see obs.Tracer). Must be called before Run.
func (s *Simulator) SetEpochTracer(ts ...obs.Tracer) {
	s.tracers = slices.DeleteFunc(slices.Clone(ts), func(t obs.Tracer) bool { return t == nil })
}

// sinks returns a run's epoch observers: the installed tracers, plus the
// context's span, which records one finished "epoch" child per event.
func (s *Simulator) sinks(ctx context.Context) []obs.Tracer {
	if sp := obs.SpanFromContext(ctx); sp != nil {
		return append(slices.Clip(s.tracers), sp)
	}
	return s.tracers
}

// threadRt is the runtime state of one thread.
type threadRt struct {
	task    *workload.Task
	idx     int
	id      ThreadID
	core    int // -1 while queued
	decided int // apply's scratch: the core the decision maps the thread to, or -1
	penalty float64
	history *power.History
	key     string // id.String(), the event's Mapping key; set if the run has sinks

	// The slice constants of executeSlice: the interval model's seconds per
	// instruction and executing power on sliceCore at sliceF under
	// sliceContention. They are recomputed only when that key changes, at a
	// decision, a DTM edge or a contention update.
	sliceCore               int
	sliceF, sliceContention float64
	tpi, execWatts          float64
	cpiCore                 int     // the core cpi was computed for
	cpi                     float64 // fillState's EffectiveCPI at peak frequency on cpiCore
}

// Run executes the simulation to completion (all tasks done) and returns the
// collected metrics. If MaxTime is hit first, the partial Result is returned
// together with ErrTimeout.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation. The context is polled once
// per scheduler invocation — i.e. at most one scheduler epoch of simulated
// progress elapses after ctx is cancelled — and a cancelled run returns its
// partial Result together with an error wrapping ErrCanceled. A nil ctx
// behaves like context.Background(). The overhead for an uncancellable
// context is one Err() call per epoch, invisible next to a Decide call.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := s.plat.NumCores()
	dt := s.cfg.TimeSlice
	stepper, err := s.plat.Thermal.NewStepper(dt)
	if err != nil {
		return nil, err
	}

	ep := epochStream{sinks: s.sinks(ctx)}

	metricRuns.Inc()
	res := &Result{Scheduler: s.sched.Name(), PeakTemp: math.Inf(-1)}
	temps := s.plat.Thermal.InitialTemps()
	freqs := make([]float64, n)
	fmax := s.plat.Power.DVFS().FMax
	for i := range freqs {
		freqs[i] = fmax
	}

	var live []*threadRt
	pendingIdx := 0
	now := 0.0
	nextSched := 0.0
	needSched := true
	dtmActive := false
	medianCore := s.plat.FP.ID(s.plat.FP.Width/2, s.plat.FP.Height/2)
	var noise *rand.Rand // seeded only when SensorNoiseStdDev > 0 reads it
	if s.cfg.SensorNoiseStdDev > 0 {
		noise = rand.New(rand.NewSource(s.cfg.SensorNoiseSeed))
	}
	contention := 1.0 // shared-resource latency factor (NoCContention)
	dtmCore := make([]bool, n)

	coreTemps := make([]float64, n)
	corePower := make([]float64, n)
	effFreqs := make([]float64, n)
	// The scheduler's view: refilled in place every epoch and borrowed by
	// Decide. Its CoreTemps is the sensor-view buffer itself.
	st := &State{CoreTemps: coreTemps, Platform: s.plat, TDTM: s.cfg.TDTM}
	owner := make([]int, n) // apply's per-core scratch
	// maxT is the hottest core of temps. Only the thermal step writes temps,
	// so one reduction per slice, right after it, serves the next slice's
	// DTM check, the decision's epoch event and the run's PeakTemp.
	maxT := s.plat.Thermal.MaxCoreTemp(temps)

	for {
		// Admit arrivals whose time has come.
		for pendingIdx < len(s.tasks) && s.tasks[pendingIdx].Arrival <= now+dt/2 {
			task := s.tasks[pendingIdx]
			pendingIdx++
			for ti := 0; ti < task.Threads; ti++ {
				h, err := power.NewHistory(s.cfg.HistoryWindow)
				if err != nil {
					return nil, err
				}
				th := &threadRt{
					task: task, idx: ti,
					id:        ThreadID{Task: task.ID, Thread: ti},
					core:      -1,
					history:   h,
					sliceCore: -1,
					cpiCore:   -1,
				}
				if len(ep.sinks) > 0 {
					th.key = th.id.String()
				}
				live = append(live, th)
			}
			needSched = true
		}

		// Termination: nothing left anywhere.
		if len(live) == 0 && pendingIdx >= len(s.tasks) {
			break
		}
		if now >= s.cfg.MaxTime {
			ep.end()
			s.finalize(res, now)
			return res, fmt.Errorf("%w after %.3f s with %d live threads", ErrTimeout, now, len(live))
		}

		// Scheduler invocation. The cancellation poll lives here, on the
		// epoch cadence, so aborting costs at most one epoch of simulated
		// progress without touching the per-slice hot path.
		if needSched || now >= nextSched-dt/2 {
			ep.end()
			if err := ctx.Err(); err != nil {
				s.finalize(res, now)
				return res, fmt.Errorf("%w after %.3f s: %v", ErrCanceled, now, err)
			}
			copy(coreTemps, temps[:n])
			if s.cfg.SensorNoiseStdDev > 0 {
				for i := range coreTemps {
					coreTemps[i] += noise.NormFloat64() * s.cfg.SensorNoiseStdDev
				}
			}
			s.fillState(st, now, live, dtmActive, medianCore)
			ep.ev.StateNS = ep.lap()
			dec := s.sched.Decide(st)
			ep.ev.WallNS = ep.lap()
			res.SchedulerHostTime += time.Duration(ep.ev.WallNS)
			res.SchedulerInvocations++
			metricEpochs.Inc()
			migBefore := res.Migrations
			if err := s.apply(dec, live, owner, freqs, res); err != nil {
				return nil, err
			}
			ep.ev.ApplyNS = ep.lap()
			ep.ev.Epoch, ep.ev.Time = res.SchedulerInvocations-1, now
			ep.ev.Migrations = res.Migrations - migBefore
			ep.begin(s.plat, live, temps[:n], maxT, freqs, corePower)
			interval := dec.NextInvoke
			if interval <= 0 {
				interval = s.cfg.SchedulerEpoch
			}
			if interval < dt {
				interval = dt
			}
			nextSched = now + interval
			needSched = false
		}

		// Hardware DTM: chip-wide (paper) or per-core.
		if s.cfg.DTMEnabled {
			if s.cfg.DTMPerCore {
				anyActive := false
				for c := 0; c < n; c++ {
					if !dtmCore[c] && temps[c] > s.cfg.TDTM {
						dtmCore[c] = true
						res.DTMEvents++
						metricDTMEvents.Inc()
					} else if dtmCore[c] && temps[c] < s.cfg.TDTM-s.cfg.DTMHysteresis {
						dtmCore[c] = false
					}
					anyActive = anyActive || dtmCore[c]
				}
				dtmActive = anyActive
			} else if !dtmActive && maxT > s.cfg.TDTM {
				dtmActive = true
				res.DTMEvents++
				metricDTMEvents.Inc()
			} else if dtmActive && maxT < s.cfg.TDTM-s.cfg.DTMHysteresis {
				dtmActive = false
			}
		}

		// Execute one slice.
		for i := range corePower {
			corePower[i] = s.plat.Power.IdleWatts
		}
		var llcAccesses float64
		for _, th := range live {
			if th.core < 0 {
				// Queued: no core, no attributable power; the history keeps
				// reflecting the thread's last execution.
				continue
			}
			f := s.effectiveFreq(freqs, th.core, dtmActive, dtmCore)
			w, instr := s.executeSlice(th, f, dt, now, contention)
			corePower[th.core] = w
			llcAccesses += instr * th.task.Bench.MPKI / 1000
		}
		if s.cfg.NoCContention {
			// Damped fixed point: utilization of the n LLC banks, each
			// serving one access per bank-access time.
			rho := llcAccesses / dt * s.plat.Perf.BankAccess / float64(n)
			target := perf.ContentionFactor(rho)
			contention = 0.5*contention + 0.5*target
		}

		stepper.StepTo(temps, temps, corePower)
		now += dt
		metricSlices.Inc()

		if maxT = s.plat.Thermal.MaxCoreTemp(temps); maxT > res.PeakTemp {
			res.PeakTemp = maxT
		}
		if dtmActive {
			res.DTMTime += dt
		}
		for _, w := range corePower {
			res.EnergyJ += w * dt
		}

		// Task completions.
		remaining := live[:0]
		for _, th := range live {
			if th.task.Done() {
				if th.task.FinishTime < 0 {
					th.task.FinishTime = now
				}
				needSched = true
				continue
			}
			remaining = append(remaining, th)
		}
		live = remaining

		if s.trace != nil {
			copy(coreTemps, temps[:n])
			for c := range effFreqs {
				effFreqs[c] = s.effectiveFreq(freqs, c, dtmActive, dtmCore)
			}
			s.trace(now, coreTemps, corePower, effFreqs)
		}
	}

	ep.end()
	s.finalize(res, now)
	obs.LoggerFrom(ctx).Debug("sim: run complete",
		"scheduler", res.Scheduler,
		"simulated_s", res.SimulatedTime,
		"epochs", res.SchedulerInvocations,
		"peak_temp_c", res.PeakTemp,
		"migrations", res.Migrations,
		"decide_host_ns", res.SchedulerHostTime.Nanoseconds(),
	)
	return res, nil
}

// effectiveFreq is core c's frequency after hardware DTM: the throttle
// frequency caps it while DTM holds the chip (or, per core, that core).
func (s *Simulator) effectiveFreq(freqs []float64, c int, dtmActive bool, dtmCore []bool) float64 {
	throttled := dtmActive
	if s.cfg.DTMPerCore {
		throttled = dtmCore[c]
	}
	if throttled && freqs[c] > s.cfg.DTMThrottleFreq {
		return s.cfg.DTMThrottleFreq
	}
	return freqs[c]
}

// executeSlice advances thread th on its core at frequency f for dt seconds
// and returns the core's average power over the slice along with the
// instructions retired.
func (s *Simulator) executeSlice(th *threadRt, f, dt, now, contention float64) (watts, instructions float64) {
	pm := &s.plat.Power
	if th.core != th.sliceCore || f != th.sliceF || contention != th.sliceContention {
		params := th.task.Bench.Perf()
		// Under contention every memory access takes `contention` (≥ 1)
		// times longer.
		mem := s.plat.Perf.MemTimePerInstr(params, th.core) * contention
		busyF, stallF := perf.FractionsAt(params, f, mem)
		th.tpi = params.BaseCPI/f + mem
		th.execWatts = pm.IntervalPower(th.task.Bench.NominalWatts, f, busyF, stallF)
		th.sliceCore, th.sliceF, th.sliceContention = th.core, f, contention
	}
	tpi, execWatts := th.tpi, th.execWatts

	left := dt
	var energy float64 // watt-seconds over the slice

	// Migration penalty stalls the thread first.
	if th.penalty > 0 {
		p := math.Min(th.penalty, left)
		th.penalty -= p
		left -= p
		energy += p * pm.StallWatts
	}

	for guard := 0; left > 1e-12 && th.task.State(th.idx) == workload.ThreadRunning; guard++ {
		if guard > 64 {
			panic("sim: thread made no progress in a slice")
		}
		used := th.task.Execute(th.idx, left/tpi)
		if used <= 0 {
			break
		}
		if th.task.StartTime < 0 {
			th.task.StartTime = now
		}
		instructions += used
		t := used * tpi
		energy += t * execWatts
		left -= t
	}
	energy += left * pm.IdleWatts

	avg := energy / dt
	th.history.Record(dt, avg)
	return avg, instructions
}

// epochStream is the engine's one per-epoch report: an engine-owned event,
// refilled in place every epoch and lent to every sink once the epoch's slice
// batch has run. Its phases come from contiguous clock reads, so they tile
// the epoch; sink time, and filling the event for them, is in no phase.
type epochStream struct {
	sinks   []obs.Tracer
	ev      obs.EpochEvent
	pending bool      // ev describes an epoch whose slice batch has not ended
	mark    time.Time // the end of the last measured phase
}

// lap ends the phase that began at the mark and returns its length.
func (e *epochStream) lap() int64 {
	now := time.Now()
	d := now.Sub(e.mark).Nanoseconds()
	e.mark = now
	return d
}

// begin starts the decided epoch's slice batch. With sinks it first refills
// the event's map and slices: the mapping and frequencies just installed, and
// the temperatures, their hottest core maxT and the per-core power at the
// decision instant.
func (e *epochStream) begin(plat *Platform, live []*threadRt, temps []float64, maxT float64, freqs, corePower []float64) {
	e.pending = true
	if len(e.sinks) == 0 {
		return
	}
	ev := &e.ev
	if ev.Mapping == nil {
		ev.Mapping = make(map[string]int, len(live))
	}
	clear(ev.Mapping)
	for _, th := range live {
		if th.core >= 0 {
			ev.Mapping[th.key] = th.core
		}
	}
	ev.Freqs = append(ev.Freqs[:0], freqs...)
	ev.CoreTemps = append(ev.CoreTemps[:0], temps...)
	ev.CorePower = append(ev.CorePower[:0], corePower...)
	ev.PeakTemp = maxT
	ev.AmbientDelta = ev.PeakTemp - plat.Thermal.Ambient()
	e.mark = time.Now()
}

// end closes the pending epoch, if any: its slice batch ends now and the
// event goes to every sink. The clock for the next epoch starts after them.
func (e *epochStream) end() {
	if e.pending {
		e.pending = false
		e.ev.StepNS = e.lap()
		for _, t := range e.sinks {
			t.RecordEpoch(e.ev)
		}
	}
	e.mark = time.Now()
}

// fillState refills the engine-owned scheduler view in place: the epoch's
// time and DTM flag, and one ThreadInfo per live thread in live's order.
// A thread's CPI is recomputed only when its core changed, and a task's
// remaining work once per run of its adjacent threads. After the first
// epochs have grown Threads it allocates nothing.
func (s *Simulator) fillState(st *State, now float64, live []*threadRt, dtm bool, medianCore int) {
	fmax := s.plat.Power.DVFS().FMax
	st.Time, st.DTMActive = now, dtm
	st.Threads = st.Threads[:0]
	var task *workload.Task
	var remaining float64
	for _, th := range live {
		cpiCore := th.core
		if cpiCore < 0 {
			cpiCore = medianCore
		}
		if cpiCore != th.cpiCore {
			th.cpi = s.plat.Perf.EffectiveCPI(th.task.Bench.Perf(), cpiCore, fmax)
			th.cpiCore = cpiCore
		}
		if th.task != task {
			task, remaining = th.task, th.task.TotalRemaining()
		}
		st.Threads = append(st.Threads, ThreadInfo{
			ID:             th.id,
			Benchmark:      th.task.Bench.Name,
			Perf:           th.task.Bench.Perf(),
			NominalWatts:   th.task.Bench.NominalWatts,
			State:          th.task.State(th.idx),
			Core:           th.core,
			AvgPower:       th.history.Average(th.task.Bench.NominalWatts),
			CPI:            th.cpi,
			RemainingInstr: remaining,
			Arrival:        th.task.Arrival,
		})
	}
}

// apply validates and installs a scheduler decision. Validation walks live
// and looks each thread up in the assignment, once: owner (one entry per
// core, zeroed on return) records which live thread claimed a core, and a
// mapped count short of len(dec.Assignment) means the decision names a
// thread that is not live. Nothing is moved until the whole decision has
// passed.
func (s *Simulator) apply(dec Decision, live []*threadRt, owner []int, freqs []float64, res *Result) error {
	n := s.plat.NumCores()
	defer clear(owner)
	mapped := 0
	for i, th := range live {
		core, ok := dec.Assignment[th.id]
		th.decided = -1
		if !ok {
			continue
		}
		mapped++
		if core < 0 || core >= n {
			return fmt.Errorf("sim: scheduler %s assigned thread %v to invalid core %d", s.sched.Name(), th.id, core)
		}
		if prev := owner[core]; prev != 0 {
			return fmt.Errorf("sim: scheduler %s assigned threads %v and %v to core %d", s.sched.Name(), live[prev-1].id, th.id, core)
		}
		owner[core] = i + 1
		th.decided = core
	}
	if unknown := len(dec.Assignment) - mapped; unknown > 0 {
		return fmt.Errorf("sim: scheduler %s assigned %d thread(s) that are not live", s.sched.Name(), unknown)
	}
	if dec.Freq != nil && len(dec.Freq) != n {
		return fmt.Errorf("sim: scheduler %s returned %d frequencies for %d cores", s.sched.Name(), len(dec.Freq), n)
	}
	for _, th := range live {
		switch core := th.decided; {
		case core < 0:
			th.core = -1
		case th.core >= 0 && th.core != core:
			th.penalty += s.plat.Caches.MigrationPenalty(th.core, core)
			res.Migrations++
			metricMigrations.Inc()
			th.core = core
		default:
			th.core = core
		}
	}
	if dec.Freq != nil {
		d := s.plat.Power.DVFS()
		for i, f := range dec.Freq {
			freqs[i] = d.Clamp(f)
		}
	} else {
		fmax := s.plat.Power.DVFS().FMax
		for i := range freqs {
			freqs[i] = fmax
		}
	}
	return nil
}

// finalize computes the aggregate metrics.
func (s *Simulator) finalize(res *Result, now float64) {
	if !math.IsInf(res.PeakTemp, 0) && !math.IsNaN(res.PeakTemp) {
		metricPeakTemp.Set(res.PeakTemp)
		metricPeakTempDist.Observe(res.PeakTemp)
	}
	res.SimulatedTime = now
	var sum, waitSum float64
	finished := 0
	for _, task := range s.tasks {
		stat := TaskStat{
			ID:        task.ID,
			Benchmark: task.Bench.Name,
			Threads:   task.Threads,
			Arrival:   task.Arrival,
			Start:     task.StartTime,
			Finish:    task.FinishTime,
			Response:  task.ResponseTime(),
		}
		res.Tasks = append(res.Tasks, stat)
		if task.FinishTime >= 0 {
			finished++
			sum += stat.Response
			if stat.Start >= 0 {
				waitSum += stat.Start - stat.Arrival
			}
			if stat.Finish > res.Makespan {
				res.Makespan = stat.Finish
			}
			if stat.Response > res.MaxResponse {
				res.MaxResponse = stat.Response
			}
		}
	}
	if finished > 0 {
		res.AvgResponse = sum / float64(finished)
		res.AvgWait = waitSum / float64(finished)
	}
}

// String renders a one-paragraph human-readable summary of the run.
func (r *Result) String() string {
	return fmt.Sprintf(
		"%s: %d tasks, makespan %.1f ms, avg response %.1f ms (wait %.1f ms), "+
			"peak %.2f °C, DTM %d events/%.1f ms, %d migrations, %.2f J",
		r.Scheduler, len(r.Tasks), r.Makespan*1e3, r.AvgResponse*1e3, r.AvgWait*1e3,
		r.PeakTemp, r.DTMEvents, r.DTMTime*1e3, r.Migrations, r.EnergyJ)
}
