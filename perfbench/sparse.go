package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// sparse_rotation runs HotPotato on the sparse thermal backend: a 4×4 chip
// with platform.thermal.solver forced to "sparse" (the path every chip of
// 512 nodes or more takes on its own) and sim.max_time capped so each run
// makes the same few scheduling decisions. The Krylov expm·v inside the
// iterative Algorithm 1 fixed point does nearly all the work. The seed
// shuffles the order of the eight benchmarks within each round.

type sparseRun struct {
	label string
	spec  hotpotato.RunSpec
	hash  string
	gold  string
}

func sparseInputs(e *env) ([]sparseRun, error) {
	var runs []sparseRun
	for i, doc := range e.cat.sparse {
		spec, err := decodeSpec(doc)
		if err != nil {
			return nil, err
		}
		hash, err := hotpotato.SpecHash(spec)
		if err != nil {
			return nil, err
		}
		runs = append(runs, sparseRun{label: spec.Workload.Tasks[0].Bench, spec: spec, hash: hash, gold: e.gold.Sparse[i]})
	}
	return runs, nil
}

// runSparse executes one run; a stop at the capped max_time is the expected
// outcome, anything else fails the operation.
func (e *env) runSparse(plat *hotpotato.Platform, r sparseRun, rec *obs.SpanRecorder) (time.Duration, error) {
	ctx := context.Background()
	var root *obs.Span
	if rec != nil {
		root = rec.Start("execute_spec_on_platform")
		ctx = obs.ContextWithSpan(ctx, root)
	}
	t := time.Now()
	res, err := hotpotato.ExecuteSpecOnPlatform(ctx, plat, r.spec)
	d := time.Since(t)
	if rec != nil {
		root.End()
	}
	if err != nil && !errors.Is(err, hotpotato.ErrTimeout) {
		e.op(true)
		return d, fmt.Errorf("sparse run %s: %w", r.label, err)
	}
	bad := res == nil || resultDigest(r.hash, res) != r.gold
	e.op(bad)
	if res != nil {
		e.decided(res.SchedulerHostTime.Nanoseconds(), res.SchedulerInvocations)
	}
	if bad {
		e.note("failed: sparse run %s differs from its golden digest", r.label)
	}
	return d, nil
}

func runSparseRotation(e *env) error {
	runs, err := sparseInputs(e)
	if err != nil {
		return err
	}
	// Set-up is one sparse 4×4 platform build. It takes a tenth of a
	// millisecond, too short to time alone, so each sample times a batch
	// of builds and is divided by the batch.
	const batch = 200
	var plat *hotpotato.Platform
	build := func() (err error) {
		for i := 0; i < batch && err == nil; i++ {
			plat, err = hotpotato.NewPlatformFromConfig(runs[0].spec.Platform)
		}
		return err
	}
	builds, err := timeSetups(setupRepeats-setupRepeats/2, build, func() {})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	next := func() []sparseRun {
		round := make([]sparseRun, len(runs))
		for i, j := range rng.Perm(len(runs)) {
			round[i] = runs[j]
		}
		return round
	}
	if e.traced {
		return traceSparse(e, plat, next())
	}

	// Benchmarks differ several-fold in cost, so the operation is a whole
	// round of all eight runs.
	e.opCPU.begin()
	for deadline := time.Now().Add(e.seconds); len(e.opMS) == 0 || time.Now().Before(deadline); {
		var total time.Duration
		for _, r := range next() {
			d, err := e.runSparse(plat, r, nil)
			if err != nil {
				return err
			}
			total += d
		}
		e.opDone(total)
	}
	e.opCPU.end()
	after, err := timeSetups(setupRepeats/2, build, func() {})
	if err != nil {
		return err
	}
	samples := append(builds, after...)
	for i := range samples {
		samples[i].measured /= batch
		samples[i].atRef /= batch
	}
	e.setupDone(samples)
	e.detail("sparse_run_s", median(e.opMS)/1e3/float64(len(runs)), "s")
	return nil
}

func traceSparse(e *env, plat *hotpotato.Platform, round []sparseRun) error {
	var plain, traced, first, rest []float64
	w := openWindow()
	deadline := time.Now().Add(e.seconds)
	for i, r := range round {
		if i > 0 && !time.Now().Before(deadline) {
			break
		}
		d, err := e.runSparse(plat, r, nil)
		if err != nil {
			return err
		}
		plain = append(plain, d.Seconds())

		rec := obs.NewSpanRecorder(1 << 12)
		id := e.spans.start("sparse_run", r.label, 0)
		d, err = e.runSparse(plat, r, rec)
		e.spans.end(id)
		if err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
		recs := rec.Records()
		e.spans.graft(recs, id, r.label)
		for _, s := range recs {
			if s.Name != "epoch" {
				continue
			}
			ms := float64(attrInt(s, "decide_ns")) / 1e6
			if attrInt(s, "epoch") == 0 {
				first = append(first, ms)
			} else {
				rest = append(rest, ms)
			}
		}
	}
	// Each run ran twice, untraced and traced; an operation is a round.
	w.close(e, float64(len(plain)+len(traced))/float64(len(round)))
	p, t := median(plain), median(traced)
	e.set("trace.overhead_pct", 100*(t-p)/p, "%")
	e.detail("sched.first_decide_ms.sparse", median(first), "ms")
	e.detail("sched.decide_ms.sparse", median(rest), "ms")
	e.note("where the time goes (sparse run, median %.2f s): first Decide %.1f %%, later Decides %.1f %% (%d per run)",
		t, 100*median(first)/1e3/t, 100*mean(rest)*float64(len(rest))/float64(len(traced))/1e3/t, len(rest)/len(traced))
	return nil
}
