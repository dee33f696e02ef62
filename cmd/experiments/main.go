// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all            # everything (several minutes)
//	experiments -exp table1         # Table I platform parameters
//	experiments -exp characterize   # per-benchmark placement/DVFS sensitivity
//	experiments -exp fig2           # motivational thermal traces
//	experiments -exp fig4a          # homogeneous full-load comparison
//	experiments -exp fig4b          # heterogeneous open-system comparison
//	experiments -exp baselines      # policy ladder on one hot full load
//	experiments -exp overhead       # scheduler run-time cost
//	experiments -exp ablations      # τ sweep, ring scope, migration cost,
//	                                # analytic-vs-brute, sensor noise,
//	                                # headroom Δ, NoC contention
//	experiments -exp hybrid         # §VII future work: rotation + DVFS
//	experiments -exp threed         # §VII future work: 3D-stacked S-NUCA
//
// -quick shrinks workloads, -workers N bounds the simulation worker pool
// (default: GOMAXPROCS; results are identical at any value), -json emits
// machine-readable output, and -outdir DIR additionally writes plot-ready
// CSV files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	hotpotato "repro"
	"repro/internal/experiments"
)

// jsonOut switches every experiment to JSON output.
var jsonOut bool

// csvDir, when non-empty, receives plot-ready CSV files per experiment.
var csvDir string

// writeCSV writes one CSV artifact into csvDir (no-op when unset).
func writeCSV(name string, write func(w *os.File) error) {
	if csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(csvDir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", f.Name())
}

// emit prints v as indented JSON when -json is set and returns true.
func emit(name string, v any) bool {
	if !jsonOut {
		return false
	}
	out, err := json.MarshalIndent(map[string]any{"experiment": name, "result": v}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(out)
	fmt.Println()
	return true
}

func main() {
	exp := flag.String("exp", "all", "experiment: all|table1|characterize|fig2|fig4a|fig4b|baselines|overhead|ablations|hybrid|threed")
	quick := flag.Bool("quick", false, "scale workloads down for a fast run")
	seed := flag.Int64("seed", 12345, "random seed for fig4b")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"max concurrent simulation cells (results are identical at any value)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	outdir := flag.String("outdir", "", "also write plot-ready CSV files into this directory")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		fmt.Fprintf(out, "Regenerates the paper's tables and figures. The comparisons exercise the\nregistered scheduling policies: %s.\n\n",
			strings.Join(hotpotato.SchedulerNames(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	jsonOut = *asJSON
	csvDir = *outdir
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	opts := experiments.Options{Workers: *workers}
	if *quick {
		opts.WorkScale = 0.25
	}

	run := map[string]func(experiments.Options, int64) error{
		"table1":       func(experiments.Options, int64) error { return table1() },
		"fig2":         func(experiments.Options, int64) error { return fig2() },
		"fig4a":        func(o experiments.Options, _ int64) error { return fig4a(o) },
		"fig4b":        func(o experiments.Options, s int64) error { return fig4b(o, s) },
		"overhead":     func(experiments.Options, int64) error { return overhead() },
		"ablations":    func(o experiments.Options, _ int64) error { return ablations(o) },
		"hybrid":       func(o experiments.Options, _ int64) error { return hybrid(o) },
		"threed":       func(experiments.Options, int64) error { return threed() },
		"characterize": func(experiments.Options, int64) error { return characterize() },
		"baselines":    func(o experiments.Options, _ int64) error { return baselines(o) },
	}
	order := []string{"table1", "characterize", "fig2", "fig4a", "fig4b", "baselines", "overhead", "ablations", "hybrid", "threed"}

	if *exp == "all" {
		for _, name := range order {
			if err := run[name](opts, *seed); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Println()
		}
		return
	}
	fn, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if err := fn(opts, *seed); err != nil {
		log.Fatalf("%s: %v", *exp, err)
	}
}

func table1() error {
	rows, err := experiments.TableI()
	if err != nil {
		return err
	}
	if !emit("table1", rows) {
		experiments.WriteTableI(os.Stdout, rows)
	}
	return nil
}

func fig2() error {
	stride := 0
	if csvDir != "" {
		stride = 5
	}
	res, err := experiments.Fig2(stride)
	if err != nil {
		return err
	}
	if !emit("fig2", res) {
		experiments.WriteFig2(os.Stdout, res)
	}
	writeCSV("fig2_traces.csv", func(w *os.File) error {
		return experiments.WriteFig2TracesCSV(w, res)
	})
	return nil
}

func fig4a(opts experiments.Options) error {
	rows, err := hotpotato.Fig4a(opts)
	if err != nil {
		return err
	}
	if !emit("fig4a", rows) {
		experiments.WriteFig4a(os.Stdout, rows)
	}
	writeCSV("fig4a.csv", func(w *os.File) error {
		return experiments.WriteFig4aCSV(w, rows)
	})
	return nil
}

func fig4b(opts experiments.Options, seed int64) error {
	rows, err := hotpotato.Fig4b(opts, experiments.DefaultFig4bRates(), 20, seed)
	if err != nil {
		return err
	}
	if !emit("fig4b", rows) {
		experiments.WriteFig4b(os.Stdout, rows)
	}
	writeCSV("fig4b.csv", func(w *os.File) error {
		return experiments.WriteFig4bCSV(w, rows)
	})
	return nil
}

func overhead() error {
	res, err := experiments.Overhead()
	if err != nil {
		return err
	}
	if !emit("overhead", res) {
		fmt.Printf("Run-time overhead (64-core full load; host %s):\n", host())
		fmt.Println(res)
	}
	return nil
}

// host names the machine that host-timed rows were measured on: they time
// the host CPU, so a number means nothing without it.
func host() string {
	return fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
}

// ablationResults is the -json document of -exp ablations.
type ablationResults struct {
	TauSweep        []hotpotato.TauSweepRow          `json:"tau_sweep"`
	RingScope       []hotpotato.RingScopeRow         `json:"ring_scope"`
	MigrationCost   []hotpotato.MigrationCostRow     `json:"migration_cost"`
	AnalyticVsBrute []experiments.AnalyticVsBruteRow `json:"analytic_vs_brute"`
	NoiseSweep      []hotpotato.NoiseSweepRow        `json:"noise_sweep"`
	HeadroomSweep   []hotpotato.HeadroomSweepRow     `json:"headroom_sweep"`
	Contention      []hotpotato.ContentionRow        `json:"contention"`
}

func ablations(opts experiments.Options) error {
	var r ablationResults
	var err error
	if r.TauSweep, err = hotpotato.TauSweep(experiments.DefaultTaus()); err != nil {
		return err
	}
	if r.RingScope, err = hotpotato.RingScope(); err != nil {
		return err
	}
	if r.MigrationCost, err = hotpotato.MigrationCostSweep([]float64{0.5, 1, 2, 4, 8}, opts); err != nil {
		return err
	}
	if r.AnalyticVsBrute, err = experiments.AnalyticVsBrute([]int{2, 4, 8}); err != nil {
		return err
	}
	if r.NoiseSweep, err = hotpotato.NoiseSweep([]float64{0, 0.5, 1, 2, 4}, opts); err != nil {
		return err
	}
	if r.HeadroomSweep, err = hotpotato.HeadroomSweep([]float64{0.5, 1, 2, 4}, opts); err != nil {
		return err
	}
	if r.Contention, err = hotpotato.Contention(opts, []string{"streamcluster", "canneal"}); err != nil {
		return err
	}
	writeCSV("tau_sweep.csv", func(w *os.File) error {
		return experiments.WriteTauSweepCSV(w, r.TauSweep)
	})
	if emit("ablations", r) {
		return nil
	}
	experiments.WriteTauSweep(os.Stdout, r.TauSweep)
	fmt.Println()
	experiments.WriteRingScope(os.Stdout, r.RingScope)
	fmt.Println()
	experiments.WriteMigrationCostSweep(os.Stdout, r.MigrationCost)
	fmt.Println()
	experiments.WriteAnalyticVsBrute(os.Stdout, r.AnalyticVsBrute)
	fmt.Printf("(times on host %s)\n\n", host())
	experiments.WriteNoiseSweep(os.Stdout, r.NoiseSweep)
	fmt.Println()
	experiments.WriteHeadroomSweep(os.Stdout, r.HeadroomSweep)
	fmt.Println()
	experiments.WriteContention(os.Stdout, r.Contention)
	return nil
}

func characterize() error {
	rows, err := experiments.Heterogeneity()
	if err != nil {
		return err
	}
	if !emit("characterize", rows) {
		experiments.WriteHeterogeneity(os.Stdout, rows)
	}
	return nil
}

func hybrid(opts experiments.Options) error {
	rows, err := hotpotato.Hybrid(opts, []string{"blackscholes", "x264", "swaptions"})
	if err != nil {
		return err
	}
	if !emit("hybrid", rows) {
		experiments.WriteHybrid(os.Stdout, rows)
	}
	return nil
}

func threed() error {
	res, err := experiments.ThreeD()
	if err != nil {
		return err
	}
	if !emit("threed", res) {
		experiments.WriteThreeD(os.Stdout, res)
	}
	return nil
}

func baselines(opts experiments.Options) error {
	rows, err := hotpotato.Baselines(opts, "x264")
	if err != nil {
		return err
	}
	if !emit("baselines", rows) {
		experiments.WriteBaselines(os.Stdout, "x264", rows)
	}
	return nil
}
