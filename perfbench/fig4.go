package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// paper_fig4 regenerates Fig. 4(a) and Fig. 4(b) at paper scale exactly as a
// researcher does: the harness with two workers, 26 HotPotato/PCMig cells on
// the Table I 8×8 chip. Its inputs are the paper's experiment, so the seed
// does not change them: the figures must stay comparable with EXPERIMENTS.md
// and the paper.

// The Fig. 4(b) configuration EXPERIMENTS.md records.
var fig4Rates = []float64{25, 50, 100, 200, 400}

const (
	fig4bTasks = 20
	fig4bSeed  = 12345
)

func runFig4() ([]hotpotato.Fig4aRow, []hotpotato.Fig4bRow, error) {
	opts := hotpotato.ExperimentOptions{Workers: 2}
	a, err := hotpotato.Fig4a(opts)
	if err != nil {
		return nil, nil, err
	}
	b, err := hotpotato.Fig4b(opts, fig4Rates, fig4bTasks, fig4bSeed)
	return a, b, err
}

func fig4Digests(a []hotpotato.Fig4aRow, b []hotpotato.Fig4bRow) (da, db []string) {
	for _, r := range a {
		da = append(da, digest(mustJSON(r)))
	}
	for _, r := range b {
		db = append(db, digest(mustJSON(r)))
	}
	return da, db
}

// checkFig4 counts every cell of the figure as one operation; both cells of
// a row fail when the row differs from its golden digest.
func (e *env) checkFig4(a []hotpotato.Fig4aRow, b []hotpotato.Fig4bRow) {
	da, db := fig4Digests(a, b)
	check := func(got, want []string) {
		for i := range want {
			bad := i >= len(got) || got[i] != want[i]
			e.op(bad)
			e.op(bad)
		}
	}
	check(da, e.gold.Fig4a)
	check(db, e.gold.Fig4b)
}

func fig4aAverage(rows []hotpotato.Fig4aRow) float64 {
	var sum float64
	for _, r := range rows {
		sum += r.SpeedupPercent
	}
	return sum / float64(len(rows))
}

func runPaperFig4(e *env) error {
	// Set-up is one Table I platform build — the cost the harness pays per
	// cell, and the platform the traced replay runs on.
	var plat *hotpotato.Platform
	build := func() (err error) {
		plat, err = hotpotato.NewPlatform(8, 8)
		return err
	}
	builds, err := timeSetups(setupRepeats-setupRepeats/2, build, func() {})
	if err != nil {
		return err
	}
	if e.traced {
		var ms []float64
		for _, b := range builds {
			ms = append(ms, b.measured)
		}
		return tracePaperFig4(e, plat, median(ms))
	}

	// The operation is one regeneration of both figures.
	var a []hotpotato.Fig4aRow
	var b []hotpotato.Fig4bRow
	e.opCPU.begin()
	for deadline := time.Now().Add(e.seconds); len(e.opMS) == 0 || time.Now().Before(deadline); {
		t := time.Now()
		if a, b, err = runFig4(); err != nil {
			return err
		}
		e.opDone(time.Since(t))
		e.checkFig4(a, b)
	}
	e.opCPU.end()
	after, err := timeSetups(setupRepeats/2, build, func() {})
	if err != nil {
		return err
	}
	e.setupDone(append(builds, after...))
	e.detail("fig4_wall_s", median(e.opMS)/1e3, "s")
	e.note("Fig. 4a average speedup %.1f %% (EXPERIMENTS.md 13.1 %%, paper 10.72 %%)", fig4aAverage(a))
	for _, r := range b {
		if r.ArrivalRate == 100 {
			e.note("Fig. 4b speedup at 100/s %.1f %% (EXPERIMENTS.md 9.9 %%, paper up to 12.27 %%)", r.SpeedupPercent)
		}
	}
	return nil
}

// fig4Cell is one harness cell as the RunSpec that reproduces it.
type fig4Cell struct {
	label string
	spec  hotpotato.RunSpec
}

func fig4Cells() []fig4Cell {
	var cells []fig4Cell
	base := func(sched string, w hotpotato.WorkloadSpec) hotpotato.RunSpec {
		return hotpotato.RunSpec{
			Platform:  hotpotato.DefaultPlatformConfig(8, 8),
			Sim:       hotpotato.DefaultSimConfig(),
			Scheduler: hotpotato.SchedulerSpec{Name: sched},
			Workload:  w,
		}.WithDefaults()
	}
	for _, b := range hotpotato.PARSEC() {
		for _, s := range []string{"hotpotato", "pcmig"} {
			cells = append(cells, fig4Cell{"fig4a/" + b.Name + "/" + s, base(s, hotpotato.WorkloadSpec{
				Kind: hotpotato.WorkloadHomogeneous, Bench: b.Name, TotalThreads: 64, Sizes: []int{2, 4, 8}})})
		}
	}
	for _, r := range fig4Rates {
		for _, s := range []string{"hotpotato", "pcmig"} {
			cells = append(cells, fig4Cell{fmt.Sprintf("fig4b/%g/%s", r, s), base(s, hotpotato.WorkloadSpec{
				Kind: hotpotato.WorkloadRandom, Count: fig4bTasks, Rate: r, Seed: fig4bSeed})})
		}
	}
	return cells
}

// replayFig4 runs the 26 cells through ExecuteSpecOnPlatform on two
// goroutines. With spans on, each cell runs under the program's own span
// recorder and its tree is grafted under the benchmark's cell span.
func replayFig4(plat *hotpotato.Platform, cells []fig4Cell, spans *spanLog) ([]*hotpotato.Result, [][]obs.SpanRecord, time.Duration, error) {
	results := make([]*hotpotato.Result, len(cells))
	recs := make([][]obs.SpanRecord, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	t := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cells); i += 2 {
				ctx := context.Background()
				var rec *obs.SpanRecorder
				var root *obs.Span
				id := spans.start("cell", cells[i].label, 0)
				if spans != nil {
					rec = obs.NewSpanRecorder(1 << 16)
					root = rec.Start("execute_spec_on_platform")
					ctx = obs.ContextWithSpan(ctx, root)
				}
				results[i], errs[i] = hotpotato.ExecuteSpecOnPlatform(ctx, plat, cells[i].spec)
				if rec != nil {
					root.End()
					recs[i] = rec.Records()
				}
				spans.end(id)
				spans.graft(recs[i], id, cells[i].label)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t)
	for i, err := range errs {
		if err != nil {
			return nil, nil, 0, fmt.Errorf("replaying %s: %w", cells[i].label, err)
		}
	}
	return results, recs, wall, nil
}

// rowsFromReplay rebuilds the figure's rows from replayed results with the
// harness's own formulas, so they can be held against its golden digests.
func rowsFromReplay(res []*hotpotato.Result) ([]hotpotato.Fig4aRow, []hotpotato.Fig4bRow) {
	var a []hotpotato.Fig4aRow
	for i, b := range hotpotato.PARSEC() {
		hp, pc := res[2*i], res[2*i+1]
		a = append(a, hotpotato.Fig4aRow{
			Benchmark:          b.Name,
			HotPotatoMakespan:  hp.Makespan,
			PCMigMakespan:      pc.Makespan,
			NormalizedMakespan: hp.Makespan / pc.Makespan,
			SpeedupPercent:     (pc.Makespan - hp.Makespan) / pc.Makespan * 100,
			HotPotatoPeak:      hp.PeakTemp,
			PCMigPeak:          pc.PeakTemp,
			HotPotatoEnergy:    hp.EnergyJ,
			PCMigEnergy:        pc.EnergyJ,
		})
	}
	var b []hotpotato.Fig4bRow
	off := 2 * len(a)
	for i, r := range fig4Rates {
		hp, pc := res[off+2*i], res[off+2*i+1]
		b = append(b, hotpotato.Fig4bRow{
			ArrivalRate:       r,
			HotPotatoResponse: hp.AvgResponse,
			PCMigResponse:     pc.AvgResponse,
			SpeedupPercent:    (pc.AvgResponse - hp.AvgResponse) / pc.AvgResponse * 100,
		})
	}
	return a, b
}

func attrInt(r obs.SpanRecord, key string) int64 {
	switch v := r.Attrs[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	}
	return 0
}

func tracePaperFig4(e *env, plat *hotpotato.Platform, buildS float64) error {
	// Replay the cells as RunSpecs, untraced and under span recorders (in
	// the order untraced, traced, traced, untraced, which cancels a drift in
	// host speed): the difference is the tracing overhead, and the traced
	// results must reproduce the harness rows bit for bit.
	cells := fig4Cells()
	var plain, traced time.Duration
	var res []*hotpotato.Result
	var recs [][]obs.SpanRecord
	for _, on := range []bool{false, true, true, false} {
		var spans *spanLog
		if on {
			spans = e.spans
		}
		r, rs, wall, err := replayFig4(plat, cells, spans)
		if err != nil {
			return err
		}
		if !on {
			plain += wall
			continue
		}
		traced += wall
		if res == nil {
			res, recs = r, rs
			ra, rb := rowsFromReplay(res)
			e.checkFig4(ra, rb)
		}
	}
	e.set("trace.overhead_pct", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds(), "%")
	for _, r := range res {
		e.decided(r.SchedulerHostTime.Nanoseconds(), r.SchedulerInvocations)
	}

	decide := map[string][]float64{}
	var decideNS, simulateNS int64
	for i, cell := range recs {
		for _, r := range cell {
			switch r.Name {
			case "simulate":
				simulateNS += r.DurationNS
			case "epoch":
				ns := attrInt(r, "decide_ns")
				decideNS += ns
				name := cells[i].spec.Scheduler.Name
				decide[name] = append(decide[name], float64(ns)/1e3)
			}
		}
	}
	e.detail("sched.decide_us.hotpotato", mean(decide["hotpotato"]), "us")
	e.detail("sched.decide_us.pcmig", mean(decide["pcmig"]), "us")
	e.detail("sched.decide_share", float64(decideNS)/float64(simulateNS), "ratio")

	// The operation, one harness regeneration, measured from outside.
	w := openWindow()
	c0 := counters()
	id := e.spans.start("fig4_harness", "fig4", 0)
	t := time.Now()
	a, b, err := runFig4()
	wall := time.Since(t)
	e.spans.end(id)
	w.close(e, 1)
	if err != nil {
		return err
	}
	e.checkFig4(a, b)
	builds := delta(counters(), c0, "sim_runs_total") // the harness builds one platform per run
	e.note("where the time goes (harness, %.2f s wall, %d workers): platform builds %.1f %% of worker time",
		wall.Seconds(), 2, 100*builds*buildS/(2*wall.Seconds()))
	return nil
}
