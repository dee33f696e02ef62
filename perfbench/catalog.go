package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	hotpotato "repro"
)

// The spec catalogues are fixed by catalogSeed, not by the workload seed: a
// run's seed only chooses which entries it draws and in what order, so every
// spec a run can send has a committed golden digest (golden.json).
const catalogSeed = 20230417

var benches = []string{"blackscholes", "bodytrack", "canneal", "dedup",
	"fluidanimate", "streamcluster", "swaptions", "x264"}

// smallSchedulers are crossed with every 4×4 catalogue workload; entry
// k·len(smallSchedulers)+s of the small catalogue is workload k under
// scheduler s, so a fleet sweep over whole workload rows stays inside it.
var smallSchedulers = []string{"hotpotato", "pcmig", "tsp", "static"}

const (
	smallWorkloads = 1024 // 4×4 workloads (×4 schedulers = 4096 specs)
	largeSpecs     = 512  // 8×8 /v1/run specs
	predictSpecs   = 256  // /v1/predict specs inside the twin's domain
)

// sparseMaxTime caps the simulated time of a sparse_rotation run, so every
// run makes the same number of scheduling decisions whatever its benchmark.
const sparseMaxTime = 0.004

type wirePlatform struct {
	Width   int            `json:"width"`
	Height  int            `json:"height"`
	Thermal map[string]any `json:"thermal,omitempty"`
}

type wireScheduler struct {
	Name string `json:"name"`
}

// wireSpec is a RunSpec document as a client writes it: only the sections it
// changes, everything else left to the paper defaults.
type wireSpec struct {
	Platform  wirePlatform           `json:"platform"`
	Sim       map[string]any         `json:"sim,omitempty"`
	Scheduler wireScheduler          `json:"scheduler"`
	Workload  hotpotato.WorkloadSpec `json:"workload"`
}

func (w wireSpec) doc() []byte { return mustJSON(w) }

type catalog struct {
	smallWorkloads []hotpotato.WorkloadSpec
	small          [][]byte // 4×4 /v1/run documents
	large          [][]byte // 8×8 /v1/run documents
	predict        [][]byte // /v1/predict documents
	sparse         [][]byte // sparse-backend HotPotato runs, one per benchmark
}

func explicitWorkload(r *rand.Rand, maxTasks, minThreads, maxThreads int, scales []float64) hotpotato.WorkloadSpec {
	w := hotpotato.WorkloadSpec{Kind: hotpotato.WorkloadExplicit}
	for t := 1 + r.Intn(maxTasks); t > 0; t-- {
		w.Tasks = append(w.Tasks, hotpotato.TaskSpec{
			Bench:     benches[r.Intn(len(benches))],
			Threads:   minThreads + r.Intn(maxThreads-minThreads+1),
			WorkScale: scales[r.Intn(len(scales))],
		})
	}
	return w
}

// distinct draws workloads from gen until it has n different ones: a
// catalogue entry repeated by chance would turn a fresh run into a cache hit.
func distinct(n int, gen func() hotpotato.WorkloadSpec) []hotpotato.WorkloadSpec {
	seen := map[string]bool{}
	var out []hotpotato.WorkloadSpec
	for len(out) < n {
		w := gen()
		if key := string(mustJSON(w)); !seen[key] {
			seen[key] = true
			out = append(out, w)
		}
	}
	return out
}

func newCatalog() *catalog {
	r := rand.New(rand.NewSource(catalogSeed))
	c := &catalog{}
	grid4 := wirePlatform{Width: 4, Height: 4}
	grid8 := wirePlatform{Width: 8, Height: 8}
	c.smallWorkloads = distinct(smallWorkloads, func() hotpotato.WorkloadSpec {
		return explicitWorkload(r, 2, 1, 4, []float64{0.3, 0.4, 0.5, 0.6})
	})
	for _, w := range c.smallWorkloads {
		for _, s := range smallSchedulers {
			c.small = append(c.small, wireSpec{Platform: grid4, Scheduler: wireScheduler{s}, Workload: w}.doc())
		}
	}
	large := distinct(largeSpecs, func() hotpotato.WorkloadSpec {
		return explicitWorkload(r, 2, 2, 6, []float64{0.1, 0.15, 0.2})
	})
	for k, w := range large {
		s := []string{"hotpotato", "pcmig"}[k%2]
		c.large = append(c.large, wireSpec{Platform: grid8, Scheduler: wireScheduler{s}, Workload: w}.doc())
	}
	for k := 0; k < predictSpecs; k++ {
		grid := grid4
		if k%4 == 3 {
			grid = grid8
		}
		w := explicitWorkload(r, 2, 1, 4, []float64{0.2, 0.3, 0.5})
		c.predict = append(c.predict, wireSpec{Platform: grid, Sim: map[string]any{"dtm_enabled": false},
			Scheduler: wireScheduler{"static"}, Workload: w}.doc())
	}
	for _, b := range benches {
		c.sparse = append(c.sparse, wireSpec{
			Platform:  wirePlatform{Width: 4, Height: 4, Thermal: map[string]any{"solver": hotpotato.SolverSparse}},
			Sim:       map[string]any{"max_time": sparseMaxTime},
			Scheduler: wireScheduler{"hotpotato"},
			Workload: hotpotato.WorkloadSpec{Kind: hotpotato.WorkloadExplicit,
				Tasks: []hotpotato.TaskSpec{{Bench: b, Threads: 2, WorkScale: 0.3}}},
		}.doc())
	}
	return c
}

// decodeSpec decodes a catalogue document exactly as the server does, with
// the paper defaults applied.
func decodeSpec(doc []byte) (hotpotato.RunSpec, error) {
	var s hotpotato.RunSpec
	if err := json.Unmarshal(doc, &s); err != nil {
		return s, fmt.Errorf("decoding catalogue spec: %w", err)
	}
	return s.WithDefaults(), nil
}
