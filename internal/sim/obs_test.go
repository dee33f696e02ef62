package sim

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestEpochTracerRecordsOneEventPerEpoch checks the content of each event;
// TestEpochStreamSinksAgree checks the counts and the phases.
func TestEpochTracerRecordsOneEventPerEpoch(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	cfg := DefaultConfig()
	task := smallTask(t, "blackscholes", 2, 0, 0.02)
	s, err := New(plat, cfg, &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewRingTracer(1 << 16)
	s.SetEpochTracer(tr)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d events with an oversized ring", tr.Dropped())
	}
	events := tr.Events()
	ambient := plat.Thermal.Ambient()
	n := plat.NumCores()
	var migrations int
	for i, ev := range events {
		if i > 0 && ev.Time <= events[i-1].Time {
			t.Errorf("event %d time %g not after %g", i, ev.Time, events[i-1].Time)
		}
		if len(ev.Freqs) != n || len(ev.CoreTemps) != n || len(ev.CorePower) != n {
			t.Fatalf("event %d vectors sized %d/%d/%d, want %d",
				i, len(ev.Freqs), len(ev.CoreTemps), len(ev.CorePower), n)
		}
		peak := math.Inf(-1)
		for _, temp := range ev.CoreTemps {
			peak = math.Max(peak, temp)
		}
		if ev.PeakTemp < peak {
			t.Errorf("event %d peak %g below hottest core %g", i, ev.PeakTemp, peak)
		}
		if got := ev.PeakTemp - ambient; math.Abs(got-ev.AmbientDelta) > 1e-9 {
			t.Errorf("event %d ambient delta %g, want %g", i, ev.AmbientDelta, got)
		}
		for key, core := range ev.Mapping {
			var id ThreadID
			if err := id.UnmarshalText([]byte(key)); err != nil {
				t.Fatalf("event %d mapping key %q: %v", i, key, err)
			}
			if core < 0 || core >= n {
				t.Fatalf("event %d maps %q to invalid core %d", i, key, core)
			}
		}
		migrations += ev.Migrations
	}
	if migrations != res.Migrations {
		t.Errorf("events sum to %d migrations, result has %d", migrations, res.Migrations)
	}
	// The greedy scheduler pins threads on first assignment: epoch 0 maps both
	// threads, later epochs keep them mapped.
	if len(events) == 0 || len(events[0].Mapping) != 2 {
		t.Fatalf("epoch 0 mapping = %v, want 2 threads", events[0].Mapping)
	}
}

func TestRunAdvancesObsCounters(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	cfg := DefaultConfig()
	task := smallTask(t, "swaptions", 1, 0, 0.02)
	s, err := New(plat, cfg, &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	runs0 := metricRuns.Value()
	epochs0 := metricEpochs.Value()
	slices0 := metricSlices.Value()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := metricRuns.Value() - runs0; d < 1 {
		t.Errorf("sim_runs_total advanced by %d, want ≥ 1", d)
	}
	if d := metricEpochs.Value() - epochs0; d < int64(res.SchedulerInvocations) {
		t.Errorf("sim_epochs_total advanced by %d, want ≥ %d", d, res.SchedulerInvocations)
	}
	wantSlices := int64(math.Round(res.SimulatedTime / cfg.TimeSlice))
	if d := metricSlices.Value() - slices0; d < wantSlices {
		t.Errorf("sim_slices_total advanced by %d, want ≥ %d", d, wantSlices)
	}
	if got := metricPeakTemp.Value(); math.Abs(got-res.PeakTemp) > 1e-9 && got < res.PeakTemp {
		// Another run may have finalized later with a different peak; the
		// gauge must at least be a finite plausible temperature.
		t.Errorf("sim_peak_temp_celsius = %g after run peaking at %g", got, res.PeakTemp)
	}
}

// cancelAfter is greedy until its k-th decision, which cancels the run's
// context: the engine stops at the next epoch boundary with ErrCanceled.
type cancelAfter struct {
	greedy
	k      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Decide(st *State) Decision {
	if c.k--; c.k == 0 {
		c.cancel()
	}
	return c.greedy.Decide(st)
}

// TestEpochStreamSinksAgree pins the one epoch stream: a RunProfile, a
// RingTracer and the context's span receive the same events, so their sums
// agree exactly, on every exit path. It also pins the span sink's contract:
// one finished "epoch" child of the context's span per scheduler invocation,
// with the attributes perfbench reads.
func TestEpochStreamSinksAgree(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	cases := []struct {
		name    string
		maxTime float64
		scale   float64
		cancelK int // cancel during the k-th decision; 0 never
		wantErr error
	}{
		{"completion", 30, 0.02, 0, nil},
		{"timeout", 0.01, 1000, 0, ErrTimeout},
		{"canceled", 30, 1000, 7, ErrCanceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxTime = tc.maxTime
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var sched Scheduler = &greedy{}
			if tc.cancelK > 0 {
				sched = &cancelAfter{k: tc.cancelK, cancel: cancel}
			}
			s, err := New(plat, cfg, sched, []*workload.Task{smallTask(t, "blackscholes", 2, 0, tc.scale)})
			if err != nil {
				t.Fatal(err)
			}
			prof := &obs.RunProfile{}
			ring := obs.NewRingTracer(1 << 16)
			s.SetEpochTracer(prof, nil, ring)
			rec := obs.NewSpanRecorder(1 << 16)
			root := rec.Start("run")
			res, err := s.RunContext(obs.ContextWithSpan(ctx, root))
			root.End()
			if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.cancelK > 0 && res.SchedulerInvocations != tc.cancelK {
				t.Fatalf("canceled run made %d decisions, want %d", res.SchedulerInvocations, tc.cancelK)
			}

			events := ring.Events()
			if prof.Epochs != res.SchedulerInvocations || ring.Total() != int64(prof.Epochs) || len(events) != prof.Epochs {
				t.Fatalf("profile %d epochs, ring %d events (%d kept), result %d invocations",
					prof.Epochs, ring.Total(), len(events), res.SchedulerInvocations)
			}
			var sum obs.RunProfile
			for i, ev := range events {
				if ev.Epoch != i {
					t.Fatalf("event %d has epoch %d", i, ev.Epoch)
				}
				if ev.StateNS < 0 || ev.WallNS < 0 || ev.ApplyNS < 0 || ev.StepNS < 0 {
					t.Errorf("event %d has a negative phase: %+v", i, ev)
				}
				sum.RecordEpoch(ev)
			}
			if sum != *prof {
				t.Errorf("profile %+v, events sum to %+v", *prof, sum)
			}
			if prof.DecideNS != res.SchedulerHostTime.Nanoseconds() {
				t.Errorf("profile decide %d ns, result host time %d ns", prof.DecideNS, res.SchedulerHostTime.Nanoseconds())
			}
			// The ring kept copies: epoch 0 still shows the initial chip,
			// though the engine refilled its buffers every epoch since.
			if n := plat.NumCores(); !slices.Equal(events[0].CoreTemps, plat.Thermal.InitialTemps()[:n]) {
				t.Errorf("epoch 0 temperatures %v overwritten", events[0].CoreTemps)
			}

			roots := rec.Tree()
			if len(roots) != 1 {
				t.Fatalf("got %d root spans, want 1", len(roots))
			}
			spans := roots[0].Children
			if len(spans) != len(events) {
				t.Fatalf("recorded %d epoch spans for %d events", len(spans), len(events))
			}
			var spanNS int64
			for i, sp := range spans {
				ev := events[i]
				if sp.Name != "epoch" || !sp.Done {
					t.Fatalf("child %d is %q, done=%v; want a finished epoch span", i, sp.Name, sp.Done)
				}
				if sp.Attrs["epoch"] != ev.Epoch || sp.Attrs["sim_time_s"] != ev.Time ||
					sp.Attrs["decide_ns"] != ev.WallNS || sp.Attrs["migrations"] != ev.Migrations {
					t.Errorf("epoch span %d attrs %v, event %+v", i, sp.Attrs, ev)
				}
				spanNS += sp.DurationNS
			}
			if total := sum.StateNS + sum.DecideNS + sum.ApplyNS + sum.StepNS; spanNS != total {
				t.Errorf("epoch spans last %d ns, event phases sum to %d ns", spanNS, total)
			}
		})
	}
}

// TestRunContextWithoutSpansIsUnchanged guards the uninstrumented fast path:
// no recorder in the context means no spans, and the run still succeeds.
func TestRunContextWithoutSpansIsUnchanged(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	task := smallTask(t, "swaptions", 1, 0, 0.02)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFinalizeObservesPeakTempDistribution(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	task := smallTask(t, "swaptions", 1, 0, 0.02)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	count0, sum0 := metricPeakTempDist.Count(), metricPeakTempDist.Sum()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	count1, sum1 := metricPeakTempDist.Count(), metricPeakTempDist.Sum()
	if count1 != count0+1 {
		t.Errorf("sim_peak_temp_distribution count %d -> %d, want exactly one new observation", count0, count1)
	}
	if got := sum1 - sum0; math.Abs(got-res.PeakTemp) > 1e-6 {
		t.Errorf("distribution sum advanced by %g, want the run's peak %g", got, res.PeakTemp)
	}
}
