package hotpotato

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestHarnessGoldenDigests pins the rows of every cell-based harness figure
// at quick scale (4×4 chip, WorkScale 0.3) to SHA-256 digests of their JSON
// encoding, at one and at four workers. The digests were recorded from the
// harness's earlier private worker pool, so they hold the figures to their
// exact numbers across executors and worker counts. The "fig4b-pair" and
// "fig4b-multiseed" inputs are the small Fig. 4(b) sweeps the concurrency
// docs and BenchmarkHotloopSweep use; the two "scale 1" inputs cover the
// homogeneous and random workload kinds, which quick scale turns into
// explicit task lists.
func TestHarnessGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every harness figure twice")
	}
	quick := ExperimentOptions{GridEdge: 4, WorkScale: 0.3}
	figures := []struct {
		name   string
		golden string
		run    func(ExperimentOptions) (any, error)
	}{
		{"fig4a", "282bb629af10504a24a0a67a2430f6dc59acf7badd550a749b140a5bb391bd01",
			func(o ExperimentOptions) (any, error) { return Fig4a(o) }},
		{"fig4b", "b07572164a2582703886969beb98c5640a16315e2706e67a525e5648d18d3c67",
			func(o ExperimentOptions) (any, error) { return Fig4b(o, experiments.DefaultFig4bRates(), 20, 12345) }},
		{"fig4b-pair", "cce5a7300c18e8bd183d5607a1612701f73eb92210ed14460d5f95c5163053be",
			func(o ExperimentOptions) (any, error) { return Fig4b(o, []float64{100}, 6, 9) }},
		{"fig4b-multiseed", "f1356259a09409903728d9bd7083ada1536e4abb27029b388d1bf1763960d9f3",
			func(o ExperimentOptions) (any, error) {
				return Fig4bMultiSeed(o, []float64{100, 200}, 6, []int64{1, 2})
			}},
		{"fig4a scale 1", "c46874118865420e6f676cb9607428d9e4a3db8505361e42bbe70a9a2354bb54",
			func(o ExperimentOptions) (any, error) { o.WorkScale = 1; return Fig4a(o) }},
		{"fig4b scale 1", "95eaee3d41038c307021b795533f340d37802d43e05f7224ea4db3472f88e293",
			func(o ExperimentOptions) (any, error) {
				o.WorkScale = 1
				return Fig4b(o, experiments.DefaultFig4bRates(), 20, 12345)
			}},
		{"hybrid", "7060a0e65a8f784edaa535a4fdbc03c5a2b3c2dad192fcd27169d216643b21b0",
			func(o ExperimentOptions) (any, error) {
				return Hybrid(o, []string{"blackscholes", "x264", "swaptions"})
			}},
		{"baselines", "481808e515f11ae7ae88350223b1cbaa2c6f1016abe252c86f256afc37d67327",
			func(o ExperimentOptions) (any, error) { return Baselines(o, "x264") }},
		{"noise", "5725fc379fe49b198469416dc1f4c7cf14d84f3432271f1c8ae7e8f877bf858c",
			func(o ExperimentOptions) (any, error) { return NoiseSweep([]float64{0, 0.5, 1, 2, 4}, o) }},
		{"headroom", "c961192f8560bc9e6b609951819feb8d7350df211e26e9a8e9c218b31c20d86d",
			func(o ExperimentOptions) (any, error) { return HeadroomSweep([]float64{0.5, 1, 2, 4}, o) }},
		{"contention", "ace02b76b072871030d467ce2ea071cdf82d4428b0bddf27b4cca9fcb7ddcb95",
			func(o ExperimentOptions) (any, error) {
				return Contention(o, []string{"streamcluster", "canneal"})
			}},
		{"migration-cost", "fd9180568485cb4e46049527f22f046da147daebff7f3b3a6b8de615e4d1a1b9",
			func(o ExperimentOptions) (any, error) { return MigrationCostSweep([]float64{0.5, 1, 2, 4, 8}, o) }},
		{"tau", "058b4c9de3d0927fe743fc215c8b29ac09f75f71c9fea08651abb257ef85ca20",
			func(ExperimentOptions) (any, error) { return TauSweep(experiments.DefaultTaus()) }},
		{"ring-scope", "d36d8e100aac55f3f53d4d2c727d3bb9b06bf70dd63b72f5cab9f1c2ce164b63",
			func(ExperimentOptions) (any, error) { return RingScope() }},
	}
	for _, workers := range []int{1, 4} {
		opts := quick
		opts.Workers = workers
		for _, f := range figures {
			rows, err := f.run(opts)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", f.name, workers, err)
			}
			doc, err := json.Marshal(rows)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(doc)
			if got := hex.EncodeToString(sum[:]); got != f.golden {
				t.Errorf("%s, workers=%d: rows digest %s, want %s\nrows: %s", f.name, workers, got, f.golden, doc)
			}
		}
	}
}

// TestRunCellsReportsLowestIndexError pins the harness's deterministic-error
// contract: every cell runs even when others fail, and the error reported is
// the lowest failing index's, whatever the worker count.
func TestRunCellsReportsLowestIndexError(t *testing.T) {
	specs := make([]RunSpec, 10)
	for i := range specs {
		bench := "blackscholes"
		if i == 3 || i == 7 {
			bench = "no-such-bench"
		}
		specs[i] = RunSpec{
			Platform:  DefaultPlatformConfig(4, 4),
			Scheduler: SchedulerSpec{Name: "pcmig"},
			Workload:  WorkloadSpec{Kind: WorkloadExplicit, Tasks: []TaskSpec{{Bench: bench, Threads: 2, WorkScale: 0.05}}},
		}
	}
	for _, workers := range []int{1, 4} {
		res, err := runCells("test", workers, specs)
		if err == nil || !strings.Contains(err.Error(), "cell 3:") || strings.Contains(err.Error(), "cell 7") {
			t.Errorf("workers=%d: err = %v, want the cell 3 failure", workers, err)
		}
		for i, r := range res {
			if failed := i == 3 || i == 7; failed != (r == nil) {
				t.Errorf("workers=%d: cell %d result %v, want a result for exactly the valid cells", workers, i, r)
			}
		}
		if len(res) != len(specs) {
			t.Errorf("workers=%d: %d results for %d cells", workers, len(res), len(specs))
		}
	}
}
