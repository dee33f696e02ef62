package hotpotato_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	hotpotato "repro"
)

func TestQuickstartFlow(t *testing.T) {
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := hotpotato.MustBenchmark("blackscholes")
	task, err := hotpotato.NewTask(0, b, 2, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sched := hotpotato.NewHotPotatoScheduler(plat, 70)
	res, err := hotpotato.Run(plat, hotpotato.DefaultSimConfig(), sched, []*hotpotato.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.PeakTemp <= 45 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestFacadeSchedulerConstructors(t *testing.T) {
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[hotpotato.ThreadID]int{{Task: 0, Thread: 0}: 5}
	for _, s := range []hotpotato.Scheduler{
		hotpotato.NewHotPotatoScheduler(plat, 70, hotpotato.WithRotationInterval(1e-3)),
		hotpotato.NewPCMigScheduler(70),
		hotpotato.NewStaticScheduler(pins, 0),
		hotpotato.NewTSPScheduler(pins, 70),
	} {
		if s.Name() == "" {
			t.Error("scheduler without a name")
		}
	}
	if _, err := hotpotato.NewRotationScheduler(map[hotpotato.ThreadID]int{}, []int{5, 6, 10, 9}, 0.5e-3); err != nil {
		t.Errorf("rotation scheduler: %v", err)
	}
}

func TestFacadeAnalytics(t *testing.T) {
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	calc := hotpotato.NewPeakCalculator(plat)
	base := make([]float64, 16)
	for i := range base {
		base[i] = 0.3
	}
	base[5] = 9
	plan := hotpotato.RotatePlan(0.5e-3, base, []int{5, 6, 10, 9})
	peak, err := calc.PeakTemperature(plan)
	if err != nil {
		t.Fatal(err)
	}
	if peak <= 45 || peak >= 90 {
		t.Fatalf("peak = %.1f °C", peak)
	}
}

func TestFacadeWorkloadBuilders(t *testing.T) {
	b := hotpotato.MustBenchmark("canneal")
	specs, err := hotpotato.HomogeneousFullLoad(b, 16, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hotpotato.Instantiate(specs); err != nil {
		t.Fatal(err)
	}
	mix, err := hotpotato.RandomMix(5, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 5 {
		t.Fatalf("mix size %d", len(mix))
	}
	if len(hotpotato.PARSEC()) != 8 {
		t.Error("PARSEC() != 8 benchmarks")
	}
	if _, err := hotpotato.BenchmarkByName("nope"); err == nil {
		t.Error("unknown benchmark resolved")
	}
}

func TestFacadeTSPBudget(t *testing.T) {
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	budget := hotpotato.TSPBudget(plat, []int{5, 10}, 70)
	if budget <= 0 || budget > 50 {
		t.Fatalf("budget = %v W", budget)
	}
}

func TestFacadeTimeoutErrorExposed(t *testing.T) {
	plat, err := hotpotato.NewPlatform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	task, err := hotpotato.NewTask(0, hotpotato.MustBenchmark("swaptions"), 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hotpotato.DefaultSimConfig()
	cfg.MaxTime = 1e-3 // far too short for the task
	_, err = hotpotato.Run(plat, cfg, hotpotato.NewHotPotatoScheduler(plat, 70), []*hotpotato.Task{task})
	if !errors.Is(err, hotpotato.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestMustBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBenchmark of unknown name did not panic")
		}
	}()
	hotpotato.MustBenchmark("ferret")
}

func TestSimulationTraceViaFacade(t *testing.T) {
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	task, err := hotpotato.NewTask(0, hotpotato.MustBenchmark("dedup"), 2, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := hotpotato.NewSimulation(plat, hotpotato.DefaultSimConfig(),
		hotpotato.NewHotPotatoScheduler(plat, 70), []*hotpotato.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	called := false
	s.SetTrace(func(tm float64, temps, watts, freqs []float64) { called = true })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("trace never invoked")
	}
}

func TestFacadeHybridSchedulerAndRecorder(t *testing.T) {
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	task, err := hotpotato.NewTask(0, hotpotato.MustBenchmark("x264"), 2, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := hotpotato.NewSimulation(plat, hotpotato.DefaultSimConfig(),
		hotpotato.NewHotPotatoDVFSScheduler(plat, 70), []*hotpotato.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	var hottest hotpotato.HottestSlice
	s.SetTrace(hottest.Observe)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	heat, err := hottest.Heatmap(4, 4, 45, 75)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("max %.2f °C)", res.PeakTemp); !strings.Contains(heat, want) || res.PeakTemp <= 45 {
		t.Errorf("hottest slice %q, run peak %.2f °C", heat, res.PeakTemp)
	}
}
