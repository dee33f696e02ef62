package hotpotato_test

import (
	"context"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	hotpotato "repro"
)

// TestEveryRegisteredPolicyRunsAnEpoch drives each registry entry through the
// full declarative path on a 4×4 chip: spec → AutoPin → construction → a real
// (tiny) run. A policy that registers but cannot actually schedule — or a
// registry edit that drops or reorders a name — fails here, not in an
// experiment harness hours later.
func TestEveryRegisteredPolicyRunsAnEpoch(t *testing.T) {
	names := hotpotato.SchedulerNames()
	want := []string{"async-migration", "hotpotato", "hotpotato-dvfs", "pcmig", "reactive", "rotation", "static", "tsp"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("SchedulerNames() = %v, want %v", names, want)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("SchedulerNames() not sorted: %v", names)
	}

	plat, err := hotpotato.NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			spec := hotpotato.RunSpec{
				Scheduler: hotpotato.SchedulerSpec{Name: name},
				Workload: hotpotato.WorkloadSpec{
					Kind:  hotpotato.WorkloadExplicit,
					Tasks: []hotpotato.TaskSpec{{Bench: "blackscholes", Threads: 2, WorkScale: 0.05}},
				},
			}
			spec.Platform.Width, spec.Platform.Height = 4, 4
			res, err := hotpotato.ExecuteSpecOnPlatform(context.Background(), plat, spec)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if res.SchedulerInvocations < 1 {
				t.Fatalf("scheduler never invoked (%d epochs)", res.SchedulerInvocations)
			}
			if res.Makespan <= 0 {
				t.Fatalf("implausible result: %+v", res)
			}
		})
	}
}

// TestCLIUsageListsSchedulersFromRegistry pins the CLIs' -sched help text to
// the registry: each command must generate its scheduler list by calling
// SchedulerNames, so a newly registered policy shows up in usage output
// without anyone remembering to edit three strings.
func TestCLIUsageListsSchedulersFromRegistry(t *testing.T) {
	for _, path := range []string{
		"cmd/hotpotato-sim/main.go",
		"cmd/experiments/main.go",
		"cmd/thermal-trace/main.go",
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		if !strings.Contains(string(src), "SchedulerNames()") {
			t.Errorf("%s does not derive its usage text from SchedulerNames()", path)
		}
	}
}
