// Command hotpotato-sim runs one interval thermal simulation and prints the
// resulting metrics.
//
// Examples:
//
//	hotpotato-sim -sched hotpotato -bench blackscholes -threads 64
//	hotpotato-sim -sched pcmig -mix 20 -rate 100
//	hotpotato-sim -sched hotpotato -grid 4 -bench canneal -threads 8 -v
//	hotpotato-sim -sched hotpotato -bench swaptions -spans spans.jsonl
//	hotpotato-sim -sweep sweep.json > results.ndjson
//
// With -sweep the single-run flags are ignored: the file is a SweepSpec
// document (base RunSpec + axes) and every cell of its cross-product runs
// over a bounded worker pool, streaming the same NDJSON records that
// POST /v1/batch serves — one "sweep" header, one "result" per cell in
// completion order, and a terminal "summary" — to stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	hotpotato "repro"
)

// logger is the process logger; flags replace it before any fatal can fire.
var logger = hotpotato.NopLogger()

// fatal logs the error at error level and exits non-zero.
func fatal(err error) {
	logger.Error("fatal", "error", err.Error())
	os.Exit(1)
}

func main() {
	schedName := flag.String("sched", "hotpotato",
		"scheduler: "+strings.Join(hotpotato.SchedulerNames(), "|"))
	grid := flag.Int("grid", 8, "chip edge length (grid×grid cores)")
	solver := flag.String("solver", "", "thermal solver backend: auto|dense|sparse (default: auto — sparse above 512 nodes)")
	bench := flag.String("bench", "", "homogeneous workload: PARSEC benchmark name")
	benchFile := flag.String("benchfile", "", "JSON file with custom benchmark models (see BenchmarksFromJSON)")
	threads := flag.Int("threads", 0, "homogeneous workload: total threads (default: fill the chip)")
	mix := flag.Int("mix", 0, "heterogeneous workload: number of random tasks (overrides -bench)")
	rate := flag.Float64("rate", 100, "heterogeneous workload: Poisson arrival rate, tasks/s")
	seed := flag.Int64("seed", 12345, "random seed for -mix")
	tdtm := flag.Float64("tdtm", 70, "DTM threshold, °C")
	tau := flag.Float64("tau", 0.5e-3, "HotPotato initial rotation interval, seconds")
	verbose := flag.Bool("v", false, "print per-task statistics")
	heatmap := flag.Bool("heatmap", false, "print an ASCII heatmap of the hottest moment")
	traceOut := flag.String("trace", "", "write one JSON line per scheduler epoch to this file")
	spansOut := flag.String("spans", "", "write the run's span tree as JSON lines to this file")
	sweepFile := flag.String("sweep", "", "run a SweepSpec JSON file (\"-\" = stdin) and stream NDJSON results to stdout; ignores the single-run flags")
	sweepWorkers := flag.Int("sweep-workers", 0, "concurrent cells for -sweep (0 = GOMAXPROCS)")
	calibrate := flag.String("calibrate", "", "calibrate the analytical twin against the simulator and write the artifact to this path; ignores the other flags")
	calSeed := flag.Int64("calibrate-seed", 0, "calibration design-grid seed (0 = the committed artifact's recipe)")
	calSamples := flag.Int("calibrate-samples", 0, "full-simulation oracle samples per bucket (0 = default recipe)")
	calRings := flag.Int("calibrate-ring-samples", 0, "Algorithm 1 oracle samples per bucket (0 = default recipe)")
	logLevel := flag.String("log-level", "warn", "log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log format: json|text")
	flag.Parse()

	var err error
	logger, err = hotpotato.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *calibrate != "" {
		runCalibrate(*calibrate, *calSeed, *calSamples, *calRings)
		return
	}
	if *sweepFile != "" {
		runSweep(*sweepFile, *sweepWorkers)
		return
	}

	if err := hotpotato.ValidateSolver(*solver); err != nil {
		fatal(err)
	}
	platCfg := hotpotato.DefaultPlatformConfig(*grid, *grid)
	platCfg.Thermal.Solver = *solver
	plat, err := hotpotato.NewPlatformFromConfig(platCfg)
	if err != nil {
		fatal(err)
	}

	lookup := hotpotato.BenchmarkByName
	if *benchFile != "" {
		f, ferr := os.Open(*benchFile)
		if ferr != nil {
			fatal(ferr)
		}
		custom, ferr := hotpotato.BenchmarksFromJSON(f)
		f.Close()
		if ferr != nil {
			fatal(ferr)
		}
		lookup = func(name string) (hotpotato.Benchmark, error) {
			for _, b := range custom {
				if b.Name == name {
					return b, nil
				}
			}
			return hotpotato.Benchmark{}, fmt.Errorf("benchmark %q not in %s", name, *benchFile)
		}
	}

	var specs []hotpotato.Spec
	switch {
	case *mix > 0:
		specs, err = hotpotato.RandomMix(*mix, *rate, *seed)
	case *bench != "":
		total := *threads
		if total == 0 {
			total = plat.NumCores()
		}
		var b hotpotato.Benchmark
		b, err = lookup(*bench)
		if err == nil {
			specs, err = hotpotato.HomogeneousFullLoad(b, total, []int{2, 4, 8})
		}
	default:
		fmt.Fprintln(os.Stderr, "need -bench or -mix")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	tasks, err := hotpotato.Instantiate(specs)
	if err != nil {
		fatal(err)
	}

	// Scheduler construction goes through the one registry, so every policy
	// the library knows is available here — and the -sched help text above
	// is generated from the same table.
	spec := hotpotato.SchedulerSpec{Name: *schedName, TDTM: *tdtm, Tau: *tau}
	spec, err = spec.AutoPin(plat, tasks)
	if err != nil {
		fatal(err)
	}
	sch, err := hotpotato.NewSchedulerFromSpec(plat, spec)
	if err != nil {
		fatal(err)
	}

	simulation, err := hotpotato.NewSimulation(plat, hotpotato.DefaultSimConfig(), sch, tasks)
	if err != nil {
		fatal(err)
	}
	var hottest hotpotato.HottestSlice
	if *heatmap {
		simulation.SetTrace(hottest.Observe)
	}
	var tracer *hotpotato.RingTracer
	if *traceOut != "" {
		// Unbounded for practical purposes: at the paper's 0.5 ms epochs this
		// holds over an hour of simulated time, so the dump is complete.
		tracer = hotpotato.NewRingTracer(1 << 23)
		simulation.SetEpochTracer(tracer)
	}

	// The run is driven through a context carrying the logger and, when
	// -spans is set, a root span: the engine records one child span per
	// scheduler epoch under it.
	ctx := hotpotato.ContextWithLogger(context.Background(), logger)
	var spans *hotpotato.SpanRecorder
	var rootSpan *hotpotato.Span
	if *spansOut != "" {
		// Same sizing rationale as the epoch trace ring: one span per epoch
		// means 1<<23 covers over an hour of simulated time.
		spans = hotpotato.NewSpanRecorder(1 << 23)
		rootSpan = spans.Start("run")
		rootSpan.SetAttr("scheduler", *schedName)
		rootSpan.SetAttr("grid", *grid)
		ctx = hotpotato.ContextWithSpan(ctx, rootSpan)
	}
	res, err := simulation.RunContext(ctx)
	rootSpan.SetError(err)
	rootSpan.End()
	if err != nil {
		fatal(err)
	}
	if tracer != nil {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fatal(ferr)
		}
		if ferr := tracer.WriteJSONL(f); ferr != nil {
			fatal(ferr)
		}
		if ferr := f.Close(); ferr != nil {
			fatal(ferr)
		}
		fmt.Printf("epoch trace:   %d events -> %s (%d dropped)\n", tracer.Len(), *traceOut, tracer.Dropped())
	}
	if spans != nil {
		if ferr := writeSpans(spans, *spansOut); ferr != nil {
			fatal(ferr)
		}
		fmt.Printf("span trace:    %d spans -> %s (%d dropped)\n", spans.Len(), *spansOut, spans.Dropped())
	}

	fmt.Printf("scheduler:     %s\n", res.Scheduler)
	fmt.Printf("tasks:         %d\n", len(res.Tasks))
	fmt.Printf("makespan:      %.1f ms\n", res.Makespan*1e3)
	fmt.Printf("avg response:  %.1f ms\n", res.AvgResponse*1e3)
	fmt.Printf("max response:  %.1f ms\n", res.MaxResponse*1e3)
	fmt.Printf("peak temp:     %.2f °C (threshold %.1f)\n", res.PeakTemp, *tdtm)
	fmt.Printf("DTM:           %d events, %.1f ms throttled\n", res.DTMEvents, res.DTMTime*1e3)
	fmt.Printf("migrations:    %d\n", res.Migrations)
	fmt.Printf("core energy:   %.2f J\n", res.EnergyJ)
	fmt.Printf("sched calls:   %d (%.1f µs avg host time)\n", res.SchedulerInvocations,
		float64(res.SchedulerHostTime.Microseconds())/float64(res.SchedulerInvocations))

	if *heatmap {
		out, err := hottest.Heatmap(*grid, *grid, 45, *tdtm+5)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(out)
	}

	if *verbose {
		fmt.Println()
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "task\tbenchmark\tthreads\tarrival\tresponse")
		for _, t := range res.Tasks {
			fmt.Fprintf(tw, "%d\t%s\t%d\t%.1f ms\t%.1f ms\n",
				t.ID, t.Benchmark, t.Threads, t.Arrival*1e3, t.Response*1e3)
		}
		tw.Flush()
	}
}

// runSweep executes a SweepSpec document and streams the wire records —
// "sweep" header, one "result" per cell in completion order, terminal
// "summary" — as NDJSON on stdout. Exactly the stream POST /v1/batch serves
// (minus the request_id and heartbeats, which only matter over HTTP), so the
// same tooling consumes both. Ctrl-C cancels: in-flight cells stop at their
// next scheduler epoch and the remainder is reported "canceled", but the
// stream still ends with its summary.
func runSweep(path string, workers int) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	var sweep hotpotato.SweepSpec
	if err := json.NewDecoder(in).Decode(&sweep); err != nil {
		fatal(fmt.Errorf("decoding SweepSpec from %s: %w", path, err))
	}
	if err := sweep.Validate(); err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(
		hotpotato.ContextWithLogger(context.Background(), logger),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	enc := json.NewEncoder(os.Stdout)
	total := sweep.CellCount()
	if err := enc.Encode(hotpotato.SweepStarted{Type: "sweep", Total: total}); err != nil {
		fatal(err)
	}

	began := time.Now()
	summary := hotpotato.SweepSummary{Type: "summary", Total: total}
	err := hotpotato.ExecuteSweep(ctx, sweep, hotpotato.SweepOptions{Workers: workers},
		func(r hotpotato.SweepCellResult) {
			rec := hotpotato.NewSweepResultRecord(r)
			summary.Observe(rec)
			if err := enc.Encode(rec); err != nil {
				fatal(err)
			}
		})
	if err != nil && ctx.Err() == nil {
		// Validation or expansion failure: nothing streamed beyond the header.
		fatal(err)
	}
	summary.ElapsedMS = float64(time.Since(began).Nanoseconds()) / 1e6
	if err := enc.Encode(summary); err != nil {
		fatal(err)
	}
	if summary.Failed > 0 || summary.Canceled > 0 {
		os.Exit(1)
	}
}

// runCalibrate fits the analytical twin against the full simulator and writes
// the versioned artifact. Zero-valued tuning flags keep the committed
// artifact's recipe, so a bare `-calibrate TWIN_model.json` reproduces it
// byte for byte (the content hash is printed for comparison).
func runCalibrate(path string, seed int64, samples, ringSamples int) {
	cal := hotpotato.DefaultTwinCalibration()
	if seed != 0 {
		cal.Seed = seed
	}
	if samples != 0 {
		cal.Samples = samples
	}
	if ringSamples != 0 {
		cal.RingSamples = ringSamples
	}

	ctx, stop := signal.NotifyContext(
		hotpotato.ContextWithLogger(context.Background(), logger),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	began := time.Now()
	model, err := hotpotato.CalibrateTwin(ctx, cal)
	if err != nil {
		fatal(err)
	}
	data, err := model.Encode()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("twin model:    %s (%d bytes)\n", path, len(data))
	fmt.Printf("hash:          %s\n", model.Hash)
	fmt.Printf("buckets:       %d (seed %d, %d+%d samples each)\n",
		len(model.Buckets), cal.Seed, cal.Samples, cal.RingSamples)
	fmt.Printf("calibration:   %.1f s\n", time.Since(began).Seconds())
}

// writeSpans dumps the recorder as JSON lines to path.
func writeSpans(spans *hotpotato.SpanRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spans.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
