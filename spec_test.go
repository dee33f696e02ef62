package hotpotato_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	hotpotato "repro"
)

// fourByFourSpec is the shared fixture: a small, fast run on the
// motivational 4×4 chip.
func fourByFourSpec(schedName string) hotpotato.RunSpec {
	return hotpotato.RunSpec{
		Platform:  hotpotato.DefaultPlatformConfig(4, 4),
		Sim:       hotpotato.DefaultSimConfig(),
		Scheduler: hotpotato.SchedulerSpec{Name: schedName, TDTM: 70},
		Workload: hotpotato.WorkloadSpec{
			Kind: hotpotato.WorkloadExplicit,
			Tasks: []hotpotato.TaskSpec{
				{Bench: "blackscholes", Threads: 2, WorkScale: 0.3},
			},
		},
	}
}

// stripHostTime zeroes the only Result fields documented to vary between
// identical runs.
func stripHostTime(r *hotpotato.Result) {
	r.SchedulerHostTime = 0
}

// TestExecuteSpecGoldenEquivalence is the backward-compatibility contract of
// the declarative API: ExecuteSpec of a JSON-round-tripped RunSpec must be
// bit-identical to the hand-constructed Run it replaces.
func TestExecuteSpecGoldenEquivalence(t *testing.T) {
	for _, schedName := range []string{"hotpotato", "pcmig"} {
		t.Run(schedName, func(t *testing.T) {
			t.Parallel()

			// Hand-constructed path, exactly as before the redesign.
			plat, err := hotpotato.NewPlatform(4, 4)
			if err != nil {
				t.Fatal(err)
			}
			b := hotpotato.MustBenchmark("blackscholes")
			task, err := hotpotato.NewTask(0, b, 2, 0, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			var sch hotpotato.Scheduler
			if schedName == "hotpotato" {
				sch = hotpotato.NewHotPotatoScheduler(plat, 70)
			} else {
				sch = hotpotato.NewPCMigScheduler(70)
			}
			want, err := hotpotato.Run(plat, hotpotato.DefaultSimConfig(), sch, []*hotpotato.Task{task})
			if err != nil {
				t.Fatal(err)
			}

			// Declarative path, through a JSON round trip.
			blob, err := json.Marshal(fourByFourSpec(schedName))
			if err != nil {
				t.Fatal(err)
			}
			var spec hotpotato.RunSpec
			if err := json.Unmarshal(blob, &spec); err != nil {
				t.Fatal(err)
			}
			got, err := hotpotato.ExecuteSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}

			stripHostTime(want)
			stripHostTime(got)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("ExecuteSpec diverged from hand-constructed Run:\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}

// TestRunSpecJSONMinimal checks decode-over-defaults: a minimal document
// gets the full Table I platform and §VI sim config, including the
// DTMEnabled=true default a plain zero value could not express.
func TestRunSpecJSONMinimal(t *testing.T) {
	doc := `{
		"platform":  {"width": 4, "height": 4},
		"scheduler": {"name": "hotpotato"},
		"workload":  {"kind": "homogeneous", "bench": "x264", "total_threads": 8}
	}`
	var spec hotpotato.RunSpec
	if err := json.Unmarshal([]byte(doc), &spec); err != nil {
		t.Fatal(err)
	}
	if want := hotpotato.DefaultPlatformConfig(4, 4); spec.Platform != want {
		t.Errorf("platform not defaulted: %+v", spec.Platform)
	}
	if want := hotpotato.DefaultSimConfig(); spec.Sim != want {
		t.Errorf("sim not defaulted: %+v", spec.Sim)
	}
	if !spec.Sim.DTMEnabled {
		t.Error("DTMEnabled default lost in decoding")
	}

	// A partial sim section keeps the other defaults.
	doc2 := `{"sim": {"max_time": 5}, "scheduler": {"name": "pcmig"}, "workload": {"kind": "random", "count": 3, "rate": 50}}`
	var spec2 hotpotato.RunSpec
	if err := json.Unmarshal([]byte(doc2), &spec2); err != nil {
		t.Fatal(err)
	}
	if spec2.Sim.MaxTime != 5 {
		t.Errorf("max_time override lost: %g", spec2.Sim.MaxTime)
	}
	if !spec2.Sim.DTMEnabled || spec2.Sim.TDTM != 70 {
		t.Errorf("partial sim section clobbered defaults: %+v", spec2.Sim)
	}
	if spec2.Platform.Width != 8 || spec2.Platform.Height != 8 {
		t.Errorf("absent platform should be the 8x8 chip, got %dx%d", spec2.Platform.Width, spec2.Platform.Height)
	}
}

// TestRunSpecValidateReportsAllErrors checks the errors.Join contract: one
// Validate call names every bad field.
func TestRunSpecValidateReportsAllErrors(t *testing.T) {
	spec := fourByFourSpec("no-such-policy")
	spec.Platform.CoreEdge = -1
	spec.Sim.MaxTime = -3
	spec.Workload = hotpotato.WorkloadSpec{Kind: "bogus"}

	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted a spec with four invalid fields")
	}
	for _, fragment := range []string{"core edge", "MaxTime", "no-such-policy", "bogus"} {
		if !strings.Contains(err.Error(), fragment) {
			t.Errorf("Validate error does not mention %q:\n%v", fragment, err)
		}
	}
}

// TestRunSpecSolverValidation checks the declarative solver knob: bad names
// are rejected by Validate (and by the exported helper the CLIs use), good
// names pass through to the platform.
func TestRunSpecSolverValidation(t *testing.T) {
	spec := fourByFourSpec("hotpotato")
	spec.Platform.Thermal.Solver = "cholmod"
	err := spec.Validate()
	if err == nil || !strings.Contains(err.Error(), "cholmod") {
		t.Fatalf("Validate did not reject solver \"cholmod\": %v", err)
	}
	if err := hotpotato.ValidateSolver("cholmod"); err == nil {
		t.Fatal("ValidateSolver accepted \"cholmod\"")
	}
	for _, good := range []string{"", hotpotato.SolverAuto, hotpotato.SolverDense, hotpotato.SolverSparse} {
		if err := hotpotato.ValidateSolver(good); err != nil {
			t.Errorf("ValidateSolver(%q) = %v", good, err)
		}
		spec.Platform.Thermal.Solver = good
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate rejected solver %q: %v", good, err)
		}
	}
}

// TestExecuteSpecSolverEquivalence runs the same spec once per explicit
// backend: the simulated outcome must agree (the thermal backends agree to
// 1e-9 K, far inside any scheduling decision margin here).
func TestExecuteSpecSolverEquivalence(t *testing.T) {
	run := func(solver string) *hotpotato.Result {
		t.Helper()
		spec := fourByFourSpec("hotpotato")
		spec.Platform.Thermal.Solver = solver
		res, err := hotpotato.ExecuteSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense := run(hotpotato.SolverDense)
	sparse := run(hotpotato.SolverSparse)
	if d := dense.PeakTemp - sparse.PeakTemp; d > 1e-6 || d < -1e-6 {
		t.Errorf("peak temperature diverged between backends: dense %.9f, sparse %.9f", dense.PeakTemp, sparse.PeakTemp)
	}
	if dense.Makespan != sparse.Makespan || dense.DTMEvents != sparse.DTMEvents || dense.Migrations != sparse.Migrations {
		t.Errorf("scheduling outcome diverged between backends:\ndense  %+v\nsparse %+v", dense, sparse)
	}
}

// TestSchedulerRegistryCoversAllPolicies pins the registry to the full
// policy set and checks every name constructs.
func TestSchedulerRegistryCoversAllPolicies(t *testing.T) {
	want := []string{"async-migration", "hotpotato", "hotpotato-dvfs", "pcmig", "reactive", "rotation", "static", "tsp"}
	if got := hotpotato.SchedulerNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SchedulerNames() = %v, want %v", got, want)
	}

	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	task, err := hotpotato.NewTask(0, hotpotato.MustBenchmark("blackscholes"), 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range hotpotato.SchedulerNames() {
		spec := hotpotato.SchedulerSpec{Name: name, TDTM: 70}
		spec, err := spec.AutoPin(plat, []*hotpotato.Task{task})
		if err != nil {
			t.Errorf("%s: AutoPin: %v", name, err)
			continue
		}
		sch, err := hotpotato.NewSchedulerFromSpec(plat, spec)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sch.Name() == "" {
			t.Errorf("%s: scheduler without a name", name)
		}
	}

	if _, err := hotpotato.NewSchedulerFromSpec(plat, hotpotato.SchedulerSpec{Name: "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
	// Pin-based policies without pins must fail loudly, not hang silently.
	if _, err := hotpotato.NewSchedulerFromSpec(plat, hotpotato.SchedulerSpec{Name: "static"}); err == nil {
		t.Error("static without pins accepted")
	}
}

// TestSchedulerSpecPinsJSONRoundTrip checks the "task:thread" map-key
// encoding survives a round trip.
func TestSchedulerSpecPinsJSONRoundTrip(t *testing.T) {
	spec := hotpotato.SchedulerSpec{
		Name: "static",
		Pins: map[hotpotato.ThreadID]int{
			{Task: 0, Thread: 0}: 5,
			{Task: 1, Thread: 3}: 10,
		},
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"1:3"`) {
		t.Errorf("pin keys not in task:thread form: %s", blob)
	}
	var back hotpotato.SchedulerSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip lost data: %+v vs %+v", spec, back)
	}
}

// TestRunContextCancellationLatency is the latency bound of the issue: after
// cancellation, at most one scheduler epoch of *simulated* progress may
// elapse. The trace hook cancels deterministically at a simulated instant.
func TestRunContextCancellationLatency(t *testing.T) {
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	task, err := hotpotato.NewTask(0, hotpotato.MustBenchmark("blackscholes"), 2, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hotpotato.DefaultSimConfig()
	sch := hotpotato.NewHotPotatoScheduler(plat, cfg.TDTM)
	simulation, err := hotpotato.NewSimulation(plat, cfg, sch, []*hotpotato.Task{task})
	if err != nil {
		t.Fatal(err)
	}

	const cancelAt = 5e-3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	simulation.SetTrace(func(tSim float64, _, _, _ []float64) {
		if tSim >= cancelAt {
			cancel()
		}
	})

	res, err := simulation.RunContext(ctx)
	if !errors.Is(err, hotpotato.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	// The poll happens on the scheduler cadence: allow one full epoch plus
	// one slice of slack past the cancellation instant.
	limit := cancelAt + cfg.SchedulerEpoch + 2*cfg.TimeSlice
	if res.SimulatedTime < cancelAt || res.SimulatedTime > limit {
		t.Errorf("cancelled at t=%g but simulation stopped at t=%g (limit %g)",
			cancelAt, res.SimulatedTime, limit)
	}
}

// TestRunContextCompletesUncancelled checks RunContext with a background
// context matches plain Run bit for bit.
func TestRunContextCompletesUncancelled(t *testing.T) {
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []*hotpotato.Task {
		task, err := hotpotato.NewTask(0, hotpotato.MustBenchmark("blackscholes"), 2, 0, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return []*hotpotato.Task{task}
	}
	cfg := hotpotato.DefaultSimConfig()
	want, err := hotpotato.Run(plat, cfg, hotpotato.NewHotPotatoScheduler(plat, 70), mk())
	if err != nil {
		t.Fatal(err)
	}
	got, err := hotpotato.RunContext(context.Background(), plat, cfg, hotpotato.NewHotPotatoScheduler(plat, 70), mk())
	if err != nil {
		t.Fatal(err)
	}
	stripHostTime(want)
	stripHostTime(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("RunContext diverged from Run:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestResultJSONRoundTrip checks the Result wire format, including the NaN
// response of an unfinished task (JSON has no NaN).
func TestResultJSONRoundTrip(t *testing.T) {
	spec := fourByFourSpec("hotpotato")
	res, err := hotpotato.ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back hotpotato.Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	stripHostTime(res)
	stripHostTime(&back)
	if !reflect.DeepEqual(*res, back) {
		t.Errorf("Result JSON round trip lost data:\nwant %+v\ngot  %+v", *res, back)
	}

	// A timed-out run carries NaN responses; it must still encode.
	spec.Sim.MaxTime = 2e-3
	partial, err := hotpotato.ExecuteSpec(context.Background(), spec)
	if !errors.Is(err, hotpotato.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if _, err := json.Marshal(partial); err != nil {
		t.Errorf("partial result does not encode: %v", err)
	}
}
