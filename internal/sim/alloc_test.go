package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// timeoutSim builds a run that is stopped by MaxTime, so two configurations
// with different TimeSlice values simulate exactly the same span with the
// same number of scheduler epochs — only the slice count differs.
func timeoutSim(t testing.TB, plat *Platform, dt float64) *Simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TimeSlice = dt
	cfg.MaxTime = 0.05                               // 100 epochs at the default 0.5 ms cadence
	task := smallTask(t, "blackscholes", 4, 0, 1000) // cannot finish in MaxTime
	s, err := New(plat, cfg, &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The slice-level hot loop (execute threads, integrate the thermal model,
// DTM, completion scan) must be allocation-free: doubling the slice count of
// an identical simulated span must not add per-slice allocations. Per-epoch
// work (scheduler decisions, state snapshots) is identical on both sides and
// cancels out of the comparison.
func TestEngineSliceBodyDoesNotAllocate(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	const dt = 0.1e-3
	run := func(dt float64) {
		s := timeoutSim(t, plat, dt)
		if _, err := s.Run(); !errors.Is(err, ErrTimeout) {
			t.Fatalf("run with dt=%g: want ErrTimeout, got %v", dt, err)
		}
	}
	coarse := testing.AllocsPerRun(1, func() { run(dt) })
	fine := testing.AllocsPerRun(1, func() { run(dt / 2) })

	coarseSlices := 0.05 / dt
	perSlice := (fine - coarse) / coarseSlices // fine runs coarseSlices extra slices
	if perSlice > 1 {
		t.Errorf("slice body allocates: %.2f allocs per extra slice (coarse run %v, fine run %v)",
			perSlice, coarse, fine)
	}
}

// fixedDecision returns the same preallocated Decision every epoch, so a run
// under it allocates only what the engine itself allocates.
type fixedDecision struct{ dec Decision }

func (f *fixedDecision) Name() string           { return "fixed" }
func (f *fixedDecision) Decide(*State) Decision { return f.dec }

// The engine's per-epoch share — the sensor view, the State refill, the
// Decide call, validating and installing the decision — must be
// allocation-free once the first epoch has sized its scratch. Two runs over
// the same 500 slices, one with 100 epochs and one with 500, must allocate
// the same; no span is attached, so every extra allocation would be the
// engine's. With a RunProfile attached the engine also fills the epoch event
// every epoch, into buffers it reuses, so that must not allocate either.
func TestEngineEpochDoesNotAllocate(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	sched := &fixedDecision{Decision{Assignment: map[ThreadID]int{}}}
	for i := 0; i < 4; i++ {
		sched.dec.Assignment[ThreadID{Task: 0, Thread: i}] = i
	}
	for _, tc := range []struct {
		name   string
		tracer obs.Tracer
	}{
		{"bare", nil},
		{"profile", &obs.RunProfile{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(epoch float64) {
				cfg := DefaultConfig()
				cfg.SchedulerEpoch = epoch
				cfg.MaxTime = 0.05
				task := smallTask(t, "blackscholes", 4, 0, 1000) // cannot finish in MaxTime
				s, err := New(plat, cfg, sched, []*workload.Task{task})
				if err != nil {
					t.Fatal(err)
				}
				s.SetEpochTracer(tc.tracer)
				res, err := s.Run()
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("run with epoch %g: want ErrTimeout, got %v", epoch, err)
				}
				if want := int(cfg.MaxTime/epoch + 0.5); res.SchedulerInvocations != want {
					t.Fatalf("run with epoch %g: %d epochs, want %d", epoch, res.SchedulerInvocations, want)
				}
			}
			// The fewest allocations of five runs: under -race, sync.Pool drops
			// items at random, so the fmt.Errorf that reports the timeout
			// sometimes allocates a fresh printer. The engine's own count does
			// not vary.
			measure := func(epoch float64) float64 {
				least := math.Inf(1)
				for range 5 {
					least = min(least, testing.AllocsPerRun(1, func() { run(epoch) }))
				}
				return least
			}
			coarse, fine := measure(0.5e-3), measure(0.1e-3)
			if extra := fine - coarse; extra >= 1 {
				t.Errorf("engine allocates per epoch: %v extra allocs over 400 extra epochs (coarse run %v, fine run %v)",
					extra, coarse, fine)
			}
		})
	}
}

// A span in the run's context records one "epoch" span per epoch, kept by
// column in its recorder's open run: amortized, well under one allocation
// per epoch (a Span plus an attribute map cost ~4.5). Two runs over the same
// 500 slices, with 100 and 500 epochs, differ only by the columns' growth.
func TestSpanTracerAmortizesEpochAllocations(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	sched := &fixedDecision{Decision{Assignment: map[ThreadID]int{}}}
	for i := 0; i < 4; i++ {
		sched.dec.Assignment[ThreadID{Task: 0, Thread: i}] = i
	}
	run := func(epoch float64) {
		cfg := DefaultConfig()
		cfg.SchedulerEpoch = epoch
		cfg.MaxTime = 0.05
		task := smallTask(t, "blackscholes", 4, 0, 1000) // cannot finish in MaxTime
		s, err := New(plat, cfg, sched, []*workload.Task{task})
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewSpanRecorder(1 << 10)
		root := rec.Start("run")
		if _, err := s.RunContext(obs.ContextWithSpan(context.Background(), root)); !errors.Is(err, ErrTimeout) {
			t.Fatalf("run with epoch %g: want ErrTimeout, got %v", epoch, err)
		}
		root.End()
		if want := int(cfg.MaxTime/epoch+0.5) + 1; rec.Len() != want {
			t.Fatalf("run with epoch %g: %d spans, want %d", epoch, rec.Len(), want)
		}
	}
	least := func(epoch float64) float64 { // see TestEngineEpochDoesNotAllocate
		n := math.Inf(1)
		for range 5 {
			n = min(n, testing.AllocsPerRun(1, func() { run(epoch) }))
		}
		return n
	}
	coarse, fine := least(0.5e-3), least(0.1e-3)
	if perEpoch := (fine - coarse) / 400; perEpoch >= 1 {
		t.Errorf("span tracer allocates %.2f per extra epoch (100-epoch run %v, 500-epoch run %v)",
			perEpoch, coarse, fine)
	}
}

// --- hot-loop epoch baseline (make bench → BENCH_hotloop.json) --------------

// BenchmarkHotloopEpoch measures the engine's epoch loop end to end: one op
// is a full 50 ms (100-epoch, 500-slice) simulation of a loaded 4×4 chip.
// allocs/op is dominated by per-epoch scheduler work; the per-slice thermal
// path contributes zero.
func BenchmarkHotloopEpoch(b *testing.B) {
	plat := testPlatform(b, 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := timeoutSim(b, plat, 0.1e-3)
		b.StartTimer()
		if _, err := s.Run(); !errors.Is(err, ErrTimeout) {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotloopEpochObserved is BenchmarkHotloopEpoch with all three
// sinks of the epoch stream attached — a RunProfile, a RingTracer and the
// context's span — so its ns/op against the bare run is the cost of
// observing every epoch. The ring and the recorder hold the run's 100 epochs,
// so no per-run buffer beyond that is charged to the observers.
func BenchmarkHotloopEpochObserved(b *testing.B) {
	plat := testPlatform(b, 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := timeoutSim(b, plat, 0.1e-3)
		s.SetEpochTracer(&obs.RunProfile{}, obs.NewRingTracer(128))
		root := obs.NewSpanRecorder(128).Start("run")
		ctx := obs.ContextWithSpan(context.Background(), root)
		b.StartTimer()
		if _, err := s.RunContext(ctx); !errors.Is(err, ErrTimeout) {
			b.Fatal(err)
		}
	}
}

// Same differencing argument with the observability layer attached: a span
// recorder (one span per epoch) and a disabled-level slog logger in the
// context add per-epoch cost only. Both runs cover identical epoch counts, so
// epoch-level span allocations cancel and the per-slice delta must stay zero.
// A per-slice trace hook is installed too: the engine hands it borrowed
// buffers, so it adds no allocation either.
func TestEngineSliceBodyDoesNotAllocateWithObservability(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	const dt = 0.1e-3
	var traced float64
	run := func(dt float64) {
		s := timeoutSim(t, plat, dt)
		s.SetTrace(func(_ float64, temps, watts, freqs []float64) {
			traced += temps[0] + watts[0] + freqs[0]
		})
		rec := obs.NewSpanRecorder(1 << 10)
		root := rec.Start("run")
		ctx := obs.ContextWithSpan(context.Background(), root)
		ctx = obs.ContextWithLogger(ctx, obs.NopLogger())
		if _, err := s.RunContext(ctx); !errors.Is(err, ErrTimeout) {
			t.Fatalf("run with dt=%g: want ErrTimeout, got %v", dt, err)
		}
		root.End()
	}
	coarse := testing.AllocsPerRun(1, func() { run(dt) })
	fine := testing.AllocsPerRun(1, func() { run(dt / 2) })

	coarseSlices := 0.05 / dt
	perSlice := (fine - coarse) / coarseSlices
	if perSlice > 1 {
		t.Errorf("slice body allocates under tracing: %.2f allocs per extra slice (coarse %v, fine %v)",
			perSlice, coarse, fine)
	}
}
