// Package hotpotato is a pure-Go reproduction of "Thermal Management for
// S-NUCA Many-Cores via Synchronous Thread Rotations" (Shen, Niknam,
// Pathania, Pimentel — DATE 2023).
//
// It bundles, behind one import path, everything the paper builds on:
//
//   - an interval thermal simulator for S-NUCA many-cores (the HotSniper
//     substitute): grid floorplan, XY-routed NoC, S-NUCA cache hierarchy,
//     HotSpot-style RC thermal model with an exact matrix-exponential
//     transient solver, DVFS power model, and PARSEC-like workload models;
//   - the paper's analytical peak-temperature method for synchronous thread
//     rotations (Eqs. 4–11, Algorithm 1);
//   - the HotPotato scheduler (Algorithm 2) and its baselines: PCMig
//     (TSP-based DVFS + asynchronous migrations), a TSP-DVFS governor, a
//     static pinner, and a fixed synchronous rotation;
//   - harnesses regenerating every figure and table of the paper's
//     evaluation.
//
// Quick start:
//
//	plat, _ := hotpotato.NewPlatform(8, 8)       // the Table I 64-core chip
//	specs, _ := hotpotato.HomogeneousFullLoad(hotpotato.MustBenchmark("x264"), 64, []int{2, 4, 8})
//	tasks, _ := hotpotato.Instantiate(specs)
//	sched := hotpotato.NewHotPotatoScheduler(plat, 70)
//	res, _ := hotpotato.Run(plat, hotpotato.DefaultSimConfig(), sched, tasks)
//	fmt.Printf("makespan %.1f ms, peak %.1f °C\n", res.Makespan*1e3, res.PeakTemp)
//
// # The declarative v1 surface
//
// Everything above can also be driven by data instead of code. A RunSpec is
// the JSON description of one run (platform, sim, scheduler, workload
// sections — the same document POST /v1/run accepts); ExecuteSpec runs it.
// Specs have a canonical form and a content address:
//
//   - Canonicalize normalizes a spec (defaults applied, irrelevant fields
//     stripped, Version pinned) so that every equivalent spelling of a run
//     becomes one representation;
//   - SpecHash hashes that form ("sha256:…") — equal hashes mean equal
//     runs, which is what makes results cacheable by content and lets the
//     server answer repeated specs with ETag/304 instead of re-simulating.
//
// A SweepSpec lifts one RunSpec into a parameter study: a base document
// plus axes (platforms, workloads, schedulers, solvers, seeds) whose
// cross-product ExecuteSweep expands and runs over a bounded worker pool,
// emitting one SweepCellResult per cell in completion order. The wire
// records (SweepStarted, SweepResultRecord, SweepProgress, SweepSummary)
// are shared by `hotpotato-sim -sweep` and the server's streaming
// POST /v1/batch endpoint. docs/API.md specifies the documents, the
// hashing contract, and the HTTP surface.
//
// # Concurrency and determinism
//
// The package follows one contract, spelled out in docs/CONCURRENCY.md:
//
//   - Hardware models (Platform, ThermalModel, PeakCalculator, Benchmark)
//     are immutable after construction and safe to share across any number
//     of goroutines. A single Platform may back many concurrent Runs.
//   - Run-state objects (Simulation, Scheduler instances, Task,
//     HottestSlice) are single-goroutine: build fresh ones per concurrent
//     run and never share an instance between two live simulations.
//   - Everything is deterministic: no package-level mutable state, no
//     shared rand sources, and the experiment harnesses (Fig4a, Fig4b, …)
//     run their independent cells on ExecuteSweepCells
//     (ExperimentOptions.Workers, default GOMAXPROCS) while collecting
//     results by index — output is bit-identical at any worker count.
package hotpotato

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/rotation"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Core simulation types, re-exported from the internal toolkit.
type (
	// Platform bundles the hardware models of one simulated chip. It is
	// immutable after NewPlatform returns and safe to share across
	// concurrent simulations and goroutines.
	Platform = sim.Platform
	// PlatformConfig collects all substrate parameters. A plain value:
	// copy freely, one per NewPlatformFromConfig call.
	PlatformConfig = sim.PlatformConfig
	// SimConfig controls one simulation run (DTM threshold, slice, ...).
	// A plain value: copy freely; each Run gets its own copy.
	SimConfig = sim.Config
	// Result carries the metrics of a completed run. It is not written
	// after Run returns; treat it as read-only when sharing.
	Result = sim.Result
	// TaskStat is the per-task outcome inside a Result.
	TaskStat = sim.TaskStat
	// Scheduler is the policy plug-in interface. Implementations are
	// stateful and single-goroutine: build one instance per Simulation and
	// never share a live instance between two runs.
	Scheduler = sim.Scheduler
	// SchedulerState is the epoch view handed to a Scheduler. The simulator
	// owns it and refills it in place every epoch: it and its slices are
	// borrowed for the Decide call, so copy whatever must outlive it.
	SchedulerState = sim.State
	// SchedulerDecision is a scheduler's thread→core mapping and DVFS answer.
	// It is borrowed from the scheduler until its next Decide, so a custom
	// scheduler may return a map and slice it refills every call.
	SchedulerDecision = sim.Decision
	// ThreadID identifies one thread of one task. A comparable value type.
	ThreadID = sim.ThreadID
	// ThreadInfo is the scheduler-visible view of one thread.
	ThreadInfo = sim.ThreadInfo
	// TraceFunc observes every simulation slice. It is called on the
	// goroutine driving Run, never concurrently with itself, with buffers
	// the simulator reuses: they are valid only during the call.
	TraceFunc = sim.TraceFunc
)

// Workload types.
type (
	// Benchmark is the interval-level model of one PARSEC application. A
	// plain value; copy and share freely.
	Benchmark = workload.Benchmark
	// Task is a live multi-threaded benchmark instance. Tasks carry run
	// state (progress, timestamps): instantiate a fresh set per simulation
	// and never feed the same Task objects to two Runs.
	Task = workload.Task
	// Spec describes one task of a mix before instantiation. A plain
	// value; reusable across any number of Instantiate calls.
	Spec = workload.Spec
)

// Rotation analytics (the paper's Algorithm 1).
type (
	// RotationPlan is a periodic power schedule: δ epochs of τ seconds.
	// Treated as read-only by the calculator; safe to share once built.
	RotationPlan = rotation.Plan
	// PeakCalculator evaluates rotation plans analytically. Evaluations
	// allocate their own scratch and the ring evaluator's response tables
	// fill under a once-per-key guard, so one calculator may serve
	// concurrent goroutines.
	// Against a sparse-mode thermal model it solves the periodic steady
	// state by certified conjugate gradients instead of the eigenbasis
	// (same results within rotation.DefaultIterTol; see
	// Calculator.Iterative).
	PeakCalculator = rotation.Calculator
	// RotationResult is the detailed periodic steady state of a plan.
	RotationResult = rotation.Result
)

// Scheduler options.
type (
	// HotPotatoOption customises the HotPotato scheduler.
	HotPotatoOption = sched.HotPotatoOption
	// PCMigOption customises the PCMig baseline.
	PCMigOption = sched.PCMigOption
)

// Thermal solver backends, re-exported for PlatformConfig.Thermal.Solver
// (JSON: platform.thermal.solver). SolverAuto — also the zero value "" —
// picks dense below thermal.SparseAutoNodeThreshold nodes and sparse above;
// both backends agree to ≤ 1e-9 K. See docs/THEORY.md §"Sparse numerics".
const (
	SolverAuto   = thermal.SolverAuto
	SolverDense  = thermal.SolverDense
	SolverSparse = thermal.SolverSparse
)

// ValidateSolver checks a thermal solver name ("" is accepted as auto) and
// returns the same error RunSpec.Validate would report for it.
func ValidateSolver(name string) error { return thermal.ValidateSolver(name) }

// ErrTimeout reports that a run hit SimConfig.MaxTime before completing.
var ErrTimeout = sim.ErrTimeout

// ErrCanceled reports that a RunContext (or ExecuteSpec) was cancelled
// before completing; the partial Result returned alongside it is valid up to
// the moment of cancellation.
var ErrCanceled = sim.ErrCanceled

// NewPlatform builds the default (Table I) platform at the given grid size.
// The paper's evaluation chip is NewPlatform(8, 8); the motivational example
// uses NewPlatform(4, 4). The returned Platform is immutable and safe to
// share across concurrent simulations; construction itself is deterministic.
func NewPlatform(width, height int) (*Platform, error) {
	return sim.NewPlatform(sim.DefaultPlatformConfig(width, height))
}

// NewPlatformFromConfig builds a platform with customised substrates.
func NewPlatformFromConfig(cfg PlatformConfig) (*Platform, error) {
	return sim.NewPlatform(cfg)
}

// DefaultPlatformConfig returns the Table I parameters at a grid size.
func DefaultPlatformConfig(width, height int) PlatformConfig {
	return sim.DefaultPlatformConfig(width, height)
}

// DefaultSimConfig returns the §VI evaluation configuration: 70 °C DTM
// threshold, 0.5 ms scheduler epochs, 0.1 ms slices.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Run executes tasks under a scheduler on a platform and returns the
// metrics. It wraps sim.New + Run for the common case; use NewSimulation to
// attach a trace observer first.
//
// Concurrency: Run is safe to call from many goroutines at once provided
// each call gets its own Scheduler instance and Task set; the Platform may
// be shared. A run is deterministic — same platform, config, scheduler
// construction, and tasks always yield the same Result (only the host-time
// fields SchedulerHostTime vary).
func Run(plat *Platform, cfg SimConfig, s Scheduler, tasks []*Task) (*Result, error) {
	simulation, err := sim.New(plat, cfg, s, tasks)
	if err != nil {
		return nil, err
	}
	return simulation.Run()
}

// RunContext is Run with cooperative cancellation: the context is polled
// once per scheduler invocation, so a cancelled run stops within one
// scheduler epoch of simulated progress and returns its partial Result with
// an error wrapping ErrCanceled. Deadlines and client disconnects propagate
// the same way — this is what lets the serving layer abandon a simulation
// the moment its request goes away.
func RunContext(ctx context.Context, plat *Platform, cfg SimConfig, s Scheduler, tasks []*Task) (*Result, error) {
	simulation, err := sim.New(plat, cfg, s, tasks)
	if err != nil {
		return nil, err
	}
	return simulation.RunContext(ctx)
}

// Simulation is a prepared run that can be instrumented before starting.
// A Simulation is single-goroutine and single-shot: configure it, call Run
// once, and do not share the instance.
type Simulation = sim.Simulator

// NewSimulation prepares a run without starting it. See Run for the
// concurrency and determinism contract.
func NewSimulation(plat *Platform, cfg SimConfig, s Scheduler, tasks []*Task) (*Simulation, error) {
	return sim.New(plat, cfg, s, tasks)
}

// NewHotPotatoScheduler builds the paper's scheduler (Algorithm 2) for a
// platform and DTM threshold. The returned Scheduler is stateful (rotation
// phase, τ adaptation): build one per Simulation, never share an instance.
// Given the same sequence of states it makes the same decisions.
func NewHotPotatoScheduler(plat *Platform, tdtm float64, opts ...HotPotatoOption) Scheduler {
	return sched.NewHotPotato(plat, tdtm, opts...)
}

// WithRotationInterval sets HotPotato's initial τ (default 0.5 ms).
func WithRotationInterval(tau float64) HotPotatoOption { return sched.WithRotationInterval(tau) }

// WithHeadroom sets HotPotato's Δ headroom (default 1 °C).
func WithHeadroom(delta float64) HotPotatoOption { return sched.WithHeadroom(delta) }

// WithRotationBounds sets HotPotato's τ adaptation range.
func WithRotationBounds(min, max float64) HotPotatoOption {
	return sched.WithRotationBounds(min, max)
}

// NewHotPotatoDVFSScheduler builds the paper's §VII future-work extension:
// synchronous rotation unified with DVFS. It behaves like HotPotato until
// even the fastest rotation is predicted unsafe, then trims the chip
// frequency instead of riding the hardware DTM.
func NewHotPotatoDVFSScheduler(plat *Platform, tdtm float64, opts ...HotPotatoOption) Scheduler {
	return sched.NewHotPotatoDVFS(plat, tdtm, opts...)
}

// NewPCMigScheduler builds the state-of-the-art baseline (TSP DVFS +
// asynchronous migrations). Like all scheduler constructors here it returns
// a stateful single-run instance — one per Simulation.
func NewPCMigScheduler(tdtm float64, opts ...PCMigOption) Scheduler {
	return sched.NewPCMig(tdtm, opts...)
}

// NewStaticScheduler pins threads to cores at a fixed frequency (0 = peak).
func NewStaticScheduler(pins map[ThreadID]int, freq float64) Scheduler {
	return sched.NewStatic(pins, freq)
}

// NewTSPScheduler pins threads like NewStaticScheduler but budgets their
// power with TSP-driven DVFS.
func NewTSPScheduler(pins map[ThreadID]int, tdtm float64) Scheduler {
	return sched.NewTSPGovernor(pins, tdtm)
}

// NewRotationScheduler rotates threads synchronously around a core cycle at
// a fixed interval (the paper's Fig. 2(c) policy).
func NewRotationScheduler(slots map[ThreadID]int, cores []int, tau float64) (Scheduler, error) {
	return sched.NewRotationStatic(slots, cores, tau)
}

// TSPBudget computes the Thermal Safe Power budget [14] for a set of active
// cores at the given threshold.
func TSPBudget(plat *Platform, active []int, tdtm float64) float64 {
	return sched.TSPBudget(plat, active, tdtm)
}

// PARSEC returns the eight benchmark models of the paper's evaluation.
func PARSEC() []Benchmark { return workload.PARSEC() }

// BenchmarkByName looks up one PARSEC benchmark model.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// MustBenchmark is BenchmarkByName but panics on unknown names; for
// examples and tests.
func MustBenchmark(name string) Benchmark {
	b, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// NewTask instantiates a benchmark as a live task.
func NewTask(id int, b Benchmark, threads int, arrival, workScale float64) (*Task, error) {
	return workload.NewTask(id, b, threads, arrival, workScale)
}

// HomogeneousFullLoad builds the Fig. 4(a) closed-system workload.
func HomogeneousFullLoad(b Benchmark, totalThreads int, sizes []int) ([]Spec, error) {
	return workload.HomogeneousFullLoad(b, totalThreads, sizes)
}

// RandomMix builds the Fig. 4(b) open-system workload (Poisson arrivals).
// Deterministic for a fixed seed: the generator is a private rand source,
// so concurrent RandomMix calls never perturb each other.
func RandomMix(count int, arrivalRate float64, seed int64) ([]Spec, error) {
	return workload.RandomMix(count, arrivalRate, seed)
}

// Instantiate converts specs into live tasks. Call it once per simulation —
// Tasks carry run state and must not be shared between concurrent Runs.
func Instantiate(specs []Spec) ([]*Task, error) { return workload.Instantiate(specs) }

// NewPeakCalculator builds a private Algorithm 1 peak-temperature
// calculator for a platform's thermal model, safe for concurrent
// evaluations from many goroutines. Platform.PeakCalculator returns the
// platform's shared one, whose ring tables HotPotato runs keep warm.
func NewPeakCalculator(plat *Platform) *PeakCalculator {
	return rotation.NewCalculator(plat.Thermal)
}

// RotatePlan builds a rotation plan that cycles the base power vector's
// values around the given core sequence with epoch length tau.
func RotatePlan(tau float64, base []float64, cores []int) RotationPlan {
	return rotation.Rotate(tau, base, cores)
}

// Experiment harnesses (paper figure/table regeneration).
type (
	// Fig2Result holds the three motivational-example executions.
	Fig2Result = experiments.Fig2Result
	// Fig4aRow is one benchmark of the homogeneous comparison.
	Fig4aRow = experiments.Fig4aRow
	// Fig4bRow is one load level of the heterogeneous comparison.
	Fig4bRow = experiments.Fig4bRow
	// ExperimentOptions scales experiments (zero value = paper scale) and
	// bounds the harness's ExecuteSweepCells pool via its Workers field
	// (0 = GOMAXPROCS). Results are bit-identical at any Workers value.
	ExperimentOptions = experiments.Options
	// OverheadResult reports scheduler run-time cost.
	OverheadResult = experiments.OverheadResult
)

// Fig2 regenerates the paper's motivational example (Fig. 2a–c). The three
// policy executions run serially on one platform; the result is
// deterministic.
func Fig2(traceStride int) (*Fig2Result, error) { return experiments.Fig2(traceStride) }

// Overhead measures HotPotato's run-time cost on the 64-core platform
// (paper §VI: 23.76 µs per decision). Deliberately serial — it reports host
// wall-clock timings, which parallel cells would inflate — so its numbers
// (and only its numbers) vary with the host machine and load.
func Overhead() (*OverheadResult, error) { return experiments.Overhead() }

// Observability types (docs/OBSERVABILITY.md).
type (
	// EpochEvent is one structured record per scheduler epoch: the mapping
	// and frequencies chosen, the temperatures at the decision instant, the
	// decision's migrations, and the epoch's measured host-time phases
	// (state, decide, apply, step).
	EpochEvent = obs.EpochEvent
	// EpochTracer receives one borrowed EpochEvent per scheduler epoch,
	// after the epoch's slice batch has run, and copies what it keeps.
	// Install tracers with Simulation.SetEpochTracer or pass them to
	// ExecuteSpecOnPlatform; each is called on the goroutine driving the
	// simulation, never concurrently with itself.
	EpochTracer = obs.Tracer
	// RingTracer is the bounded EpochTracer: a concurrency-safe ring buffer
	// that overwrites the oldest epochs once full, so tracing a long run
	// costs fixed memory.
	RingTracer = obs.RingTracer
	// MetricsRegistry holds named counters, gauges and histograms and
	// renders them as Prometheus text.
	MetricsRegistry = obs.Registry
	// Span is one live timed phase of a run; close it with End. Spans are
	// nil-safe: every method no-ops on a nil receiver, so uninstrumented
	// paths need no conditionals.
	Span = obs.Span
	// SpanRecorder is the bounded in-memory store the spans of one run
	// record into; export with WriteJSONL or Tree.
	SpanRecorder = obs.SpanRecorder
	// SpanRecord is the exported plain-data view of one span.
	SpanRecord = obs.SpanRecord
	// SpanNode is one node of an assembled span tree.
	SpanNode = obs.SpanNode
	// RunProfile is the wall-clock breakdown of one served run, embedded in
	// job responses; as an EpochTracer it sums the run's epoch phases.
	RunProfile = obs.RunProfile
)

// NewRingTracer returns a tracer retaining the last `capacity` epochs
// (capacity ≤ 0 selects obs.DefaultTraceDepth, 4096 — about 2 s of simulated
// time at the paper's 0.5 ms epochs).
func NewRingTracer(capacity int) *RingTracer { return obs.NewRingTracer(capacity) }

// Metrics returns the process-wide metrics registry that the simulator,
// schedulers, rotation evaluator and serving layer all register into. Serve
// it with WriteMetrics.
func Metrics() *MetricsRegistry { return obs.Default() }

// WriteMetrics renders every registered metric in Prometheus text exposition
// format — what the hotpotato-server GET /metrics endpoint serves.
func WriteMetrics(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// NewSpanRecorder returns a span recorder retaining up to `capacity` spans
// (capacity ≤ 0 selects obs.DefaultSpanDepth, 8192). Put its root span into a
// context with ContextWithSpan and pass that to RunContext/ExecuteSpec: the
// library records one child span per phase (workload_build, simulate) and per
// scheduler epoch — never per slice, so the hot loop stays allocation-free.
func NewSpanRecorder(capacity int) *SpanRecorder { return obs.NewSpanRecorder(capacity) }

// ContextWithSpan returns a context carrying s as the current span; library
// phases executed under that context record as children of s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return obs.ContextWithSpan(ctx, s)
}

// SpanFromContext returns the context's current span, or nil (which every
// Span method tolerates) when the context is uninstrumented.
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFromContext(ctx) }

// StartSpan starts a child of the context's current span and returns a
// context carrying it; on an uninstrumented context it returns (ctx, nil).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// NewLogger builds the structured logger shared by the binaries' -log-level /
// -log-format flags: level is debug/info/warn/error, format json or text.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// NopLogger returns a logger that discards every record — the safe default
// for library callers that have no logging destination yet.
func NopLogger() *slog.Logger { return obs.NopLogger() }

// ContextWithLogger returns a context carrying l; the simulator emits its
// per-run debug summary through it (obs.LoggerFrom falls back to a no-op
// logger on uninstrumented contexts).
func ContextWithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return obs.ContextWithLogger(ctx, l)
}

// LoggerFromContext returns the context's logger, or a no-op logger when the
// context is uninstrumented.
func LoggerFromContext(ctx context.Context) *slog.Logger { return obs.LoggerFrom(ctx) }

// NewStackedPlatformThermal builds the 3D-stacked RC thermal model of the
// §VII future-work exploration: `layers` core layers over a width×height
// grid, only the top layer adjacent to the heatsink path. The returned model
// plugs into NewPeakCalculatorForModel unchanged.
func NewStackedPlatformThermal(width, height, layers int) (*ThermalModel, error) {
	fp, err := floorplan.New(width, height, 0.0009)
	if err != nil {
		return nil, err
	}
	return thermal.NewStacked(fp, thermal.DefaultStackedConfig(layers))
}

// ThermalModel is the RC thermal network (planar or 3D-stacked).
type ThermalModel = thermal.Model

// NewPeakCalculatorForModel builds the Algorithm 1 calculator directly over
// a thermal model (use for 3D-stacked models; NewPeakCalculator covers the
// planar platform case).
func NewPeakCalculatorForModel(m *ThermalModel) *PeakCalculator {
	return rotation.NewCalculator(m)
}

// StackedCoreID returns the core ID of (layer, position) in a stacked model
// whose layers hold perLayer cores each.
func StackedCoreID(layer, position, perLayer int) int {
	return thermal.StackedCoreID(layer, position, perLayer)
}

// BenchmarksFromJSON decodes custom benchmark models from r (see
// internal/workload's JSON schema: name, nominal_watts, base_cpi, mpki,
// work, phases).
func BenchmarksFromJSON(r io.Reader) ([]Benchmark, error) { return workload.FromJSON(r) }

// BenchmarksToJSON encodes benchmark models in the BenchmarksFromJSON schema.
func BenchmarksToJSON(w io.Writer, benchmarks []Benchmark) error {
	return workload.ToJSON(w, benchmarks)
}

// heatRamp maps normalized temperature to glyphs, cold to hot.
const heatRamp = " .:-=+*#%@"

// HeatmapASCII renders a per-core temperature vector as an ASCII grid
// (row-major, width×height cores, two glyphs per core) with a scale legend.
// Temperatures map linearly from lo (coldest glyph) to hi (hottest); values
// outside clamp.
func HeatmapASCII(temps []float64, width, height int, lo, hi float64) (string, error) {
	if width < 1 || height < 1 {
		return "", fmt.Errorf("heatmap: invalid grid %dx%d", width, height)
	}
	if len(temps) != width*height {
		return "", fmt.Errorf("heatmap: %d temperatures for %dx%d grid", len(temps), width, height)
	}
	if hi <= lo {
		return "", fmt.Errorf("heatmap: invalid range [%g, %g]", lo, hi)
	}
	var sb strings.Builder
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			frac := min(max((temps[y*width+x]-lo)/(hi-lo), 0), 1)
			glyph := heatRamp[int(frac*float64(len(heatRamp)-1))]
			sb.WriteByte(glyph)
			sb.WriteByte(glyph)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "scale: '%c' ≤ %.1f °C … '%c' ≥ %.1f °C\n",
		heatRamp[0], lo, heatRamp[len(heatRamp)-1], hi)
	return sb.String(), nil
}

// HottestSlice keeps the one slice of a run whose hottest core ran hottest
// (the first such slice): its time and a copy of its per-core temperatures.
// Install Observe with Simulation.SetTrace before the run; the zero value is
// ready to use.
type HottestSlice struct {
	time, max float64
	temps     []float64
}

// Observe is the per-slice TraceFunc: it replaces the kept slice only when
// this slice's hottest core is strictly hotter.
func (h *HottestSlice) Observe(t float64, coreTemps, _, _ []float64) {
	if m := slices.Max(coreTemps); h.temps == nil || m > h.max {
		h.time, h.max = t, m
		h.temps = append(h.temps[:0], coreTemps...)
	}
}

// Heatmap renders the kept slice with HeatmapASCII under a header giving its
// time and hottest core temperature.
func (h *HottestSlice) Heatmap(width, height int, lo, hi float64) (string, error) {
	if h.temps == nil {
		return "", errors.New("heatmap: no slice observed")
	}
	grid, err := HeatmapASCII(h.temps, width, height, lo, hi)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("t = %.1f ms (hottest sample, max %.2f °C)\n%s", h.time*1e3, h.max, grid), nil
}

// NewReactiveScheduler builds the naive feedback baseline: a per-core
// ondemand-style thermal governor with no model or prediction.
func NewReactiveScheduler(tdtm float64) Scheduler {
	return sched.NewReactive(tdtm)
}
