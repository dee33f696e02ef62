// Custombench: define a workload without recompiling — benchmark models are
// loaded from JSON, run under HotPotato, and the hottest moment of the run
// is rendered as an ASCII heatmap of the chip.
package main

import (
	"fmt"
	"log"
	"strings"

	hotpotato "repro"
)

// A two-benchmark custom suite: a scorching compute kernel and a cold
// pointer-chasing one (the JSON schema of BenchmarksFromJSON).
const customSuite = `[
  {
    "name": "furnace",
    "nominal_watts": 9.5,
    "base_cpi": 0.6,
    "mpki": 0.5,
    "llc_miss_ratio": 0.01,
    "work": 2.0e8,
    "phases": [
      {"kind": "serial", "frac": 0.1},
      {"kind": "parallel", "frac": 0.8},
      {"kind": "serial", "frac": 0.1}
    ]
  },
  {
    "name": "wanderer",
    "nominal_watts": 3.5,
    "base_cpi": 1.5,
    "mpki": 30,
    "llc_miss_ratio": 0.4,
    "work": 1.2e8,
    "phases": [
      {"kind": "parallel", "frac": 1.0}
    ]
  }
]`

func main() {
	benches, err := hotpotato.BenchmarksFromJSON(strings.NewReader(customSuite))
	if err != nil {
		log.Fatal(err)
	}
	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		log.Fatal(err)
	}

	// Half the chip runs the furnace, half the wanderer.
	var tasks []*hotpotato.Task
	id := 0
	for _, b := range benches {
		for i := 0; i < 2; i++ {
			task, err := hotpotato.NewTask(id, b, 4, 0, 1)
			if err != nil {
				log.Fatal(err)
			}
			tasks = append(tasks, task)
			id++
		}
	}

	sched := hotpotato.NewHotPotatoScheduler(plat, 70)
	sim, err := hotpotato.NewSimulation(plat, hotpotato.DefaultSimConfig(), sched, tasks)
	if err != nil {
		log.Fatal(err)
	}
	var hottest hotpotato.HottestSlice
	sim.SetTrace(hottest.Observe)
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("custom suite under %s: makespan %.1f ms, peak %.2f °C, %d migrations\n\n",
		res.Scheduler, res.Makespan*1e3, res.PeakTemp, res.Migrations)
	for _, ts := range res.Tasks {
		fmt.Printf("  task %d (%s, %d threads): response %.1f ms\n",
			ts.ID, ts.Benchmark, ts.Threads, ts.Response*1e3)
	}

	heat, err := hottest.Heatmap(4, 4, 45, 75)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(heat)
}
