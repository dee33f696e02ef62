package hotpotato

// spec.go is the declarative RunSpec API: one serializable JSON document that
// names everything a run needs — platform, simulation config, scheduler, and
// workload — with ExecuteSpec as the single entry point shared by the CLIs
// and the hotpotato-server HTTP service. Run/NewSimulation remain as the
// imperative path; ExecuteSpec of an equivalent spec is bit-identical to them
// (only the host-time fields of the Result differ).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Workload kinds accepted by WorkloadSpec.Kind.
const (
	// WorkloadHomogeneous is the Fig. 4(a) scenario: vari-sized instances of
	// one benchmark filling TotalThreads threads, all arriving at t=0.
	WorkloadHomogeneous = "homogeneous"
	// WorkloadRandom is the Fig. 4(b) scenario: Count random PARSEC tasks
	// arriving as a Poisson process with Rate, seeded by Seed.
	WorkloadRandom = "random"
	// WorkloadExplicit lists every task by hand.
	WorkloadExplicit = "explicit"
)

// TaskSpec declares one task of an explicit workload.
type TaskSpec struct {
	Bench     string  `json:"bench"`
	Threads   int     `json:"threads"`
	Arrival   float64 `json:"arrival,omitempty"`
	WorkScale float64 `json:"work_scale,omitempty"` // 0 means 1
}

// WorkloadSpec declares the task mix of a run. Exactly the fields of its
// Kind are consulted; the rest are ignored.
type WorkloadSpec struct {
	Kind string `json:"kind"`

	// Homogeneous (Fig. 4a).
	Bench        string `json:"bench,omitempty"`
	TotalThreads int    `json:"total_threads,omitempty"` // 0 = fill the chip
	Sizes        []int  `json:"sizes,omitempty"`         // nil = {2, 4, 8}

	// Random (Fig. 4b).
	Count int     `json:"count,omitempty"`
	Rate  float64 `json:"rate,omitempty"` // tasks per second
	Seed  int64   `json:"seed,omitempty"`

	// Explicit.
	Tasks []TaskSpec `json:"tasks,omitempty"`
}

// RunSpec is a complete simulation run as one serializable document.
//
// JSON decoding overlays the document onto the paper defaults: an absent
// platform section means the Table I 8×8 chip, a platform section with only
// width/height keeps every other substrate at its default, and an absent sim
// section means DefaultSimConfig (DTM enabled). Programmatically-built specs
// get the same treatment through WithDefaults, which ExecuteSpec applies.
type RunSpec struct {
	// Version is the wire version of the document: absent or SpecVersion
	// ("v1"). Anything else fails validation, and Canonicalize pins it to
	// SpecVersion so the version is part of every SpecHash.
	Version   string         `json:"version,omitempty"`
	Platform  PlatformConfig `json:"platform"`
	Sim       SimConfig      `json:"sim"`
	Scheduler SchedulerSpec  `json:"scheduler"`
	Workload  WorkloadSpec   `json:"workload"`
}

// UnmarshalJSON decodes the document over the paper defaults, so minimal
// specs stay minimal: fields not present keep their default values,
// including booleans like sim.dtm_enabled (default true).
func (s *RunSpec) UnmarshalJSON(b []byte) error {
	var shadow struct {
		Version   string          `json:"version"`
		Platform  json.RawMessage `json:"platform"`
		Sim       json.RawMessage `json:"sim"`
		Scheduler SchedulerSpec   `json:"scheduler"`
		Workload  WorkloadSpec    `json:"workload"`
	}
	if err := json.Unmarshal(b, &shadow); err != nil {
		return err
	}

	plat, err := decodePlatformSection(shadow.Platform)
	if err != nil {
		return err
	}

	cfg := DefaultSimConfig()
	if isPresent(shadow.Sim) {
		if err := json.Unmarshal(shadow.Sim, &cfg); err != nil {
			return fmt.Errorf("hotpotato: sim section: %w", err)
		}
	}

	*s = RunSpec{Version: shadow.Version, Platform: plat, Sim: cfg, Scheduler: shadow.Scheduler, Workload: shadow.Workload}
	return nil
}

// decodePlatformSection decodes one JSON platform section over the paper
// defaults at its own grid size — the overlay rule RunSpec documents have
// always used, shared with SweepSpec's platform axis. An absent section
// yields the Table I 8×8 chip.
func decodePlatformSection(raw json.RawMessage) (PlatformConfig, error) {
	// The platform defaults depend on the grid size, so peek at it first.
	var dims struct {
		Width  int `json:"width"`
		Height int `json:"height"`
	}
	if isPresent(raw) {
		if err := json.Unmarshal(raw, &dims); err != nil {
			return PlatformConfig{}, fmt.Errorf("hotpotato: platform section: %w", err)
		}
	}
	if dims.Width == 0 {
		dims.Width = 8
	}
	if dims.Height == 0 {
		dims.Height = 8
	}
	plat := DefaultPlatformConfig(dims.Width, dims.Height)
	if isPresent(raw) {
		if err := json.Unmarshal(raw, &plat); err != nil {
			return PlatformConfig{}, fmt.Errorf("hotpotato: platform section: %w", err)
		}
	}
	return plat, nil
}

func isPresent(raw json.RawMessage) bool {
	return len(raw) > 0 && string(raw) != "null"
}

// WithDefaults returns a copy with zero sections replaced by the paper
// defaults: a zero platform becomes the Table I chip at the spec's grid size
// (8×8 when unset), zero substrate sub-configs are filled in individually, a
// zero sim section becomes DefaultSimConfig (positive-valued fields are also
// defaulted one by one), and a zero scheduler TDTM inherits the sim TDTM.
// Booleans inside a non-zero sim section are taken literally. The method is
// idempotent; ExecuteSpec applies it before validation, and the platform
// cache of the serving layer relies on it as the canonical form of a
// PlatformConfig.
func (s RunSpec) WithDefaults() RunSpec {
	p := &s.Platform
	if p.Width == 0 && p.Height == 0 {
		p.Width, p.Height = 8, 8
	}
	base := DefaultPlatformConfig(p.Width, p.Height)
	if p.CoreEdge == 0 {
		p.CoreEdge = base.CoreEdge
	}
	if p.NoC == (noc.Config{}) {
		p.NoC = base.NoC
	}
	if p.Cache == (cache.Config{}) {
		p.Cache = base.Cache
	}
	if p.Thermal == (thermal.Config{}) {
		p.Thermal = base.Thermal
	}
	if p.Power == (power.Model{}) {
		p.Power = base.Power
	}
	if p.BankAccess == 0 {
		p.BankAccess = base.BankAccess
	}
	if p.DRAMLatency == 0 {
		p.DRAMLatency = base.DRAMLatency
	}

	if s.Sim == (SimConfig{}) {
		s.Sim = DefaultSimConfig()
	} else {
		def := DefaultSimConfig()
		c := &s.Sim
		if c.TimeSlice == 0 {
			c.TimeSlice = def.TimeSlice
		}
		if c.SchedulerEpoch == 0 {
			c.SchedulerEpoch = def.SchedulerEpoch
		}
		if c.TDTM == 0 {
			c.TDTM = def.TDTM
		}
		if c.DTMThrottleFreq == 0 {
			c.DTMThrottleFreq = def.DTMThrottleFreq
		}
		if c.MaxTime == 0 {
			c.MaxTime = def.MaxTime
		}
		if c.HistoryWindow == 0 {
			c.HistoryWindow = def.HistoryWindow
		}
	}

	if s.Scheduler.TDTM == 0 {
		s.Scheduler.TDTM = s.Sim.TDTM
	}
	return s
}

// Validate reports every invalid field of the spec at once (errors.Join), so
// a client fixes a rejected document in one round trip instead of peeling
// errors one by one. It checks declaratively-visible constraints; deeper
// model inconsistencies still surface from platform construction.
func (s RunSpec) Validate() error {
	var errs []error

	if err := validateVersion(s.Version); err != nil {
		errs = append(errs, err)
	}
	if s.Platform.Width < 1 || s.Platform.Height < 1 {
		errs = append(errs, fmt.Errorf("hotpotato: platform grid %dx%d invalid", s.Platform.Width, s.Platform.Height))
	}
	if s.Platform.CoreEdge <= 0 {
		errs = append(errs, fmt.Errorf("hotpotato: platform core edge must be positive, got %g", s.Platform.CoreEdge))
	}
	if err := s.Platform.Power.DVFS().Validate(); err != nil {
		errs = append(errs, err)
	}
	if s.Platform.BankAccess <= 0 {
		errs = append(errs, fmt.Errorf("hotpotato: platform bank access time must be positive, got %g", s.Platform.BankAccess))
	}
	if s.Platform.DRAMLatency < 0 {
		errs = append(errs, fmt.Errorf("hotpotato: platform DRAM latency must be non-negative, got %g", s.Platform.DRAMLatency))
	}
	if err := thermal.ValidateSolver(s.Platform.Thermal.Solver); err != nil {
		errs = append(errs, err)
	}

	if err := s.Sim.Validate(); err != nil {
		errs = append(errs, err)
	}

	errs = append(errs, s.Scheduler.validate()...)
	errs = append(errs, s.Workload.validate()...)
	return errors.Join(errs...)
}

func (s SchedulerSpec) validate() []error {
	var errs []error
	if _, ok := schedulerRegistry[s.Name]; !ok {
		errs = append(errs, fmt.Errorf("hotpotato: unknown scheduler %q (have %s)",
			s.Name, strings.Join(SchedulerNames(), ", ")))
	}
	for name, v := range map[string]float64{
		"tdtm": s.TDTM, "tau": s.Tau, "tau_min": s.TauMin, "tau_max": s.TauMax,
		"headroom": s.Headroom, "rebalance_every": s.RebalanceEvery,
		"epoch": s.Epoch, "margin": s.Margin, "freq": s.Freq,
	} {
		if v < 0 {
			errs = append(errs, fmt.Errorf("hotpotato: scheduler %s must be non-negative, got %g", name, v))
		}
	}
	if (s.TauMin > 0) != (s.TauMax > 0) {
		errs = append(errs, fmt.Errorf("hotpotato: scheduler needs both rotation bounds or neither (tau_min=%g tau_max=%g)", s.TauMin, s.TauMax))
	} else if s.TauMin > s.TauMax && s.TauMax > 0 {
		errs = append(errs, fmt.Errorf("hotpotato: scheduler rotation bounds inverted (tau_min=%g > tau_max=%g)", s.TauMin, s.TauMax))
	}
	return errs
}

func (w WorkloadSpec) validate() []error {
	var errs []error
	badBench := func(name string) error {
		if name == "" {
			return fmt.Errorf("hotpotato: workload %s needs a benchmark name", w.Kind)
		}
		if _, err := workload.ByName(name); err != nil {
			return err
		}
		return nil
	}
	switch w.Kind {
	case WorkloadHomogeneous:
		if err := badBench(w.Bench); err != nil {
			errs = append(errs, err)
		}
		if w.TotalThreads < 0 {
			errs = append(errs, fmt.Errorf("hotpotato: workload total_threads must be non-negative, got %d", w.TotalThreads))
		}
		for _, size := range w.Sizes {
			if size < 1 {
				errs = append(errs, fmt.Errorf("hotpotato: workload instance size %d invalid", size))
			}
		}
	case WorkloadRandom:
		if w.Count < 1 {
			errs = append(errs, fmt.Errorf("hotpotato: workload count must be positive, got %d", w.Count))
		}
		if w.Rate <= 0 {
			errs = append(errs, fmt.Errorf("hotpotato: workload rate must be positive, got %g", w.Rate))
		}
	case WorkloadExplicit:
		if len(w.Tasks) == 0 {
			errs = append(errs, errors.New("hotpotato: explicit workload needs at least one task"))
		}
		for i, t := range w.Tasks {
			if err := badBench(t.Bench); err != nil {
				errs = append(errs, fmt.Errorf("hotpotato: task %d: %w", i, err))
			}
			if t.Threads < 1 {
				errs = append(errs, fmt.Errorf("hotpotato: task %d: threads must be positive, got %d", i, t.Threads))
			}
			if t.Arrival < 0 {
				errs = append(errs, fmt.Errorf("hotpotato: task %d: arrival must be non-negative, got %g", i, t.Arrival))
			}
			if t.WorkScale < 0 {
				errs = append(errs, fmt.Errorf("hotpotato: task %d: work_scale must be non-negative, got %g", i, t.WorkScale))
			}
		}
	default:
		errs = append(errs, fmt.Errorf("hotpotato: unknown workload kind %q (have %s, %s, %s)",
			w.Kind, WorkloadHomogeneous, WorkloadRandom, WorkloadExplicit))
	}
	return errs
}

// specs expands the workload declaration into task specs; numCores resolves
// the fill-the-chip default of the homogeneous kind.
func (w WorkloadSpec) specs(numCores int) ([]Spec, error) {
	switch w.Kind {
	case WorkloadHomogeneous:
		b, err := workload.ByName(w.Bench)
		if err != nil {
			return nil, err
		}
		total := w.TotalThreads
		if total == 0 {
			total = numCores
		}
		sizes := w.Sizes
		if len(sizes) == 0 {
			sizes = []int{2, 4, 8}
		}
		return workload.HomogeneousFullLoad(b, total, sizes)
	case WorkloadRandom:
		return workload.RandomMix(w.Count, w.Rate, w.Seed)
	case WorkloadExplicit:
		specs := make([]Spec, 0, len(w.Tasks))
		for _, t := range w.Tasks {
			b, err := workload.ByName(t.Bench)
			if err != nil {
				return nil, err
			}
			scale := t.WorkScale
			if scale == 0 {
				scale = 1
			}
			specs = append(specs, Spec{Bench: b, Threads: t.Threads, Arrival: t.Arrival, WorkScale: scale})
		}
		return specs, nil
	default:
		return nil, fmt.Errorf("hotpotato: unknown workload kind %q", w.Kind)
	}
}

// ExecuteSpec is the one entry point behind the server and the CLIs: it
// fills the spec's defaults, validates it, builds the platform it declares,
// and runs it under ctx. Cancelling ctx stops the simulation within one
// scheduler epoch of simulated progress (the partial Result comes back with
// an error wrapping ErrCanceled); hitting Sim.MaxTime returns the partial
// Result with ErrTimeout. The run is deterministic: the same spec always
// yields the same Result, bit for bit, modulo the host-time fields.
func ExecuteSpec(ctx context.Context, spec RunSpec) (*Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	plat, err := NewPlatformFromConfig(spec.Platform)
	if err != nil {
		return nil, err
	}
	return ExecuteSpecOnPlatform(ctx, plat, spec)
}

// ExecuteSpecOnPlatform is ExecuteSpec on an already-built platform — the
// serving path, where plat comes from a cache shared between requests and
// must match spec.Platform. The Platform is only read (it is immutable after
// construction), so any number of concurrent calls may share one. Each
// tracer receives one borrowed EpochEvent per scheduler epoch, as does a
// span in ctx (GET /v1/jobs/{id}/trace and the served RunProfile are built
// on it); nil tracers are skipped.
func ExecuteSpecOnPlatform(ctx context.Context, plat *Platform, spec RunSpec, tracers ...EpochTracer) (*Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	// Span instrumentation (docs/OBSERVABILITY.md): when the context carries
	// a span — a service job root or the CLI's -spans recorder — the two
	// phases of an execution show up as children: workload_build (task
	// instantiation + scheduler construction) and simulate (the run itself,
	// under which the engine records one span per epoch). With no span in
	// ctx all of this is nil no-ops.
	buildSpan := obs.SpanFromContext(ctx).StartChild("workload_build")
	taskSpecs, err := spec.Workload.specs(plat.NumCores())
	if err != nil {
		buildSpan.SetError(err)
		buildSpan.End()
		return nil, err
	}
	tasks, err := Instantiate(taskSpecs)
	if err != nil {
		buildSpan.SetError(err)
		buildSpan.End()
		return nil, err
	}
	schedSpec, err := spec.Scheduler.AutoPin(plat, tasks)
	if err != nil {
		buildSpan.SetError(err)
		buildSpan.End()
		return nil, err
	}
	scheduler, err := NewSchedulerFromSpec(plat, schedSpec)
	if err != nil {
		buildSpan.SetError(err)
		buildSpan.End()
		return nil, err
	}
	buildSpan.SetAttr("tasks", len(tasks))
	buildSpan.SetAttr("scheduler", schedSpec.Name)
	buildSpan.End()

	simulation, err := sim.New(plat, spec.Sim, scheduler, tasks)
	if err != nil {
		return nil, err
	}
	simulation.SetEpochTracer(tracers...)
	runCtx, simSpan := obs.StartSpan(ctx, "simulate")
	res, err := simulation.RunContext(runCtx)
	simSpan.SetError(err)
	if res != nil {
		simSpan.SetAttr("epochs", res.SchedulerInvocations)
		simSpan.SetAttr("simulated_s", res.SimulatedTime)
	}
	simSpan.End()
	return res, err
}
