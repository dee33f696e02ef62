package main

import (
	"encoding/json"
	"errors"
	"runtime"
	"time"

	hotpotato "repro"
)

// Per-layer metrics come from two sources, and every workload reports all of
// them. A layerWindow brackets the workload's traced pass and turns the
// program's own counters, the process's CPU time and heap allocations into
// per-operation figures. probeLayers then times direct calls into each
// layer's public functions on fixed inputs, the same in every workload, so
// a per-layer number does not depend on how the layers above call it.

// layerWindow is the state of the process when a traced pass began.
type layerWindow struct {
	counters map[string]int64
	mem      runtime.MemStats
	cpu      time.Duration
	start    time.Time
}

func openWindow() *layerWindow {
	w := &layerWindow{counters: counters()}
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

// close reports the pass's per-layer figures; ops is how many operations of
// the workload it ran. The scheduler's share of the pass's CPU time comes
// from the results the pass saw (env.decided).
func (w *layerWindow) close(e *env, ops float64) {
	wall := time.Since(w.start)
	cpu := cpuTime() - w.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := counters()
	epochs := max(delta(c, w.counters, "sim_epochs_total"), 1)
	slices := max(delta(c, w.counters, "sim_slices_total"), 1)
	e.set("proc.cpu_util", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	e.set("sim.runs_per_op", delta(c, w.counters, "sim_runs_total")/ops, "count")
	e.set("sim.epochs_per_op", delta(c, w.counters, "sim_epochs_total")/ops, "count")
	e.set("sim.slices_per_op", delta(c, w.counters, "sim_slices_total")/ops, "count")
	e.set("sim.migrations_per_op", delta(c, w.counters, "sim_migrations_total")/ops, "count")
	e.set("rotation.alg1_evals_per_op", delta(c, w.counters, "rotation_alg1_evals_total")/ops, "count")
	e.set("sim.cpu_ns_per_slice", float64(cpu.Nanoseconds())/slices, "ns")
	e.set("sim.allocs_per_epoch", float64(m.Mallocs-w.mem.Mallocs)/epochs, "count")
	e.set("sim.alloc_bytes_per_epoch", float64(m.TotalAlloc-w.mem.TotalAlloc)/epochs, "B")
	e.set("sched.decide_us", float64(e.decideNS)/1e3/float64(max(e.decides, 1)), "us")
	e.set("sched.decide_cpu_share", float64(e.decideNS)/float64(max(cpu.Nanoseconds(), 1)), "ratio")
}

// probeLayers times each layer's public functions on fixed inputs: platform
// construction, thermal stepping and Algorithm 1 ring evaluation on the dense
// 8×8 and 4×4 chips and the sparse 4×4 one, spec decoding and hashing, and
// the twin's prediction.
func probeLayers(e *env) error {
	var plat8 *hotpotato.Platform
	var err error
	e.set("sim.platform_build_ms.8x8", timeCalls(3, func() {
		plat8, err = hotpotato.NewPlatform(8, 8)
	})/1e3, "ms")
	if err != nil {
		return err
	}
	plat4, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		return err
	}
	sparseSpec, err := decodeSpec(e.cat.sparse[0])
	if err != nil {
		return err
	}
	platSparse, err := hotpotato.NewPlatformFromConfig(sparseSpec.Platform)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		name string
		plat *hotpotato.Platform
		reps int
	}{{"thermal.step_us.8x8", plat8, 2000}, {"thermal.step_us.4x4", plat4, 5000}, {"thermal.step_us.sparse", platSparse, 2000}} {
		us, err := stepUS(p.plat, p.reps)
		if err != nil {
			return err
		}
		e.set(p.name, us, "us")
	}
	ring, err := ringEvalUS(plat8, 500)
	if err != nil {
		return err
	}
	e.set("rotation.ring_eval_us.8x8", ring, "us")
	if ring, err = ringEvalUS(platSparse, 3); err != nil {
		return err
	}
	e.set("rotation.ring_eval_ms.sparse", ring/1e3, "ms")

	docs := e.cat.small[:256]
	specs := make([]hotpotato.RunSpec, len(docs))
	k := 0
	var firstErr error
	e.set("spec.decode_us", timeCalls(4*len(docs), func() {
		var s hotpotato.RunSpec
		if err := json.Unmarshal(docs[k%len(docs)], &s); err != nil && firstErr == nil {
			firstErr = err
		}
		specs[k%len(docs)] = s.WithDefaults()
		k++
	}), "us")
	k = 0
	e.set("canon.spec_hash_us", timeCalls(4*len(docs), func() {
		if _, err := hotpotato.SpecHash(specs[k%len(specs)]); err != nil && firstErr == nil {
			firstErr = err
		}
		k++
	}), "us")

	model, err := hotpotato.LoadTwinModelFile("TWIN_model.json")
	if err != nil {
		return err
	}
	var preds []hotpotato.RunSpec
	for _, doc := range e.cat.predict {
		s, err := decodeSpec(doc)
		if err != nil {
			return err
		}
		if s.Platform.Width == 4 {
			preds = append(preds, s)
		}
	}
	k = 0
	e.set("twin.predict_us", timeCalls(4*len(preds), func() {
		if _, err := hotpotato.TwinPredict(model, plat4, preds[k%len(preds)]); err != nil && firstErr == nil {
			firstErr = err
		}
		k++
	}), "us")
	if firstErr != nil {
		return errors.Join(errors.New("layer probe"), firstErr)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stepUS is the median time of one thermal.Stepper.StepTo at the default
// time slice with every core drawing 2 W, in microseconds.
func stepUS(plat *hotpotato.Platform, reps int) (float64, error) {
	m := plat.Thermal
	st, err := m.NewStepper(hotpotato.DefaultSimConfig().TimeSlice)
	if err != nil {
		return 0, err
	}
	temps := m.InitialTemps()
	watts := make([]float64, m.NumCores())
	for i := range watts {
		watts[i] = 2
	}
	return timeCalls(reps, func() { st.StepTo(temps, temps, watts) }), nil
}

// ringEvalUS is the median time of one Algorithm 1 ring evaluation
// (rotation.RingEvaluator.PeakRingRotation) of a four-core ring rotating
// two hot and two cold slots over an idle chip, in microseconds.
func ringEvalUS(plat *hotpotato.Platform, reps int) (float64, error) {
	ev := hotpotato.NewPeakCalculator(plat).NewRingEvaluator()
	w := plat.FP.Width
	base := make([]float64, plat.NumCores())
	for i := range base {
		base[i] = 0.3
	}
	ring := []int{0, 1, w + 1, w}
	slots := []float64{4, 4, 1, 1}
	var err error
	us := timeCalls(reps, func() { _, err = ev.PeakRingRotation(0.5e-3, base, ring, slots) })
	return us, err
}
