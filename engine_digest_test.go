package hotpotato

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestEngineConfigDigests pins whole runs under the engine configurations no
// harness figure covers: per-core DTM, sensor noise on the scheduler's view,
// and the NoC contention model (which feeds PCMig's per-epoch DVFS a
// time-varying slice rate). Each 4×4 run goes through HotPotato and PCMig and
// its full Result JSON is held to a SHA-256 digest. The one wall-clock field,
// SchedulerHostTime, is zeroed first. The schedulers aim at a threshold 6 K
// above the engine's DTM trip point, so every run crosses DTM edges, and the
// test also checks that each run migrated and throttled, so a digest cannot
// go stale by pinning a run in which nothing happens.
func TestEngineConfigDigests(t *testing.T) {
	plat, err := NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultSimConfig()
	base.TDTM = 64
	base.MaxTime = 2
	const schedTDTM = 70
	configs := []struct {
		name string
		edit func(*SimConfig)
	}{
		{"dtm-per-core", func(c *SimConfig) { c.DTMPerCore = true }},
		{"sensor-noise", func(c *SimConfig) { c.SensorNoiseStdDev = 1.5; c.SensorNoiseSeed = 11 }},
		{"noc-contention", func(c *SimConfig) { c.NoCContention = true }},
	}
	scheds := []struct {
		name string
		mk   func() Scheduler
	}{
		{"hotpotato", func() Scheduler { return NewHotPotatoScheduler(plat, schedTDTM) }},
		{"pcmig", func() Scheduler { return NewPCMigScheduler(schedTDTM) }},
	}
	golden := map[string]string{
		"dtm-per-core/hotpotato":   "25564acaef9804778afae214d70ed6bb24c5e4718d5f21a0bb27f79b01507a77",
		"dtm-per-core/pcmig":       "fe251debc18414e938b1141a0992e3f5b563f307d9e3431b9241fd4a84b13404",
		"sensor-noise/hotpotato":   "8bb434c089cd14f6edf3bb403ca2be9a31736a16307a57d83f911c1c6e166c33",
		"sensor-noise/pcmig":       "f0882d3bb78cde09ef4e3b5a77491e1c69f4bbb1b458ee588186db01c77c9e52",
		"noc-contention/hotpotato": "77b735580237efd299ec477c3321d56b7b86b27f373e720be0a87ab529cf4456",
		"noc-contention/pcmig":     "6c7495f98bf9e1f3d8e9ab6cb3c46b48e094cdc763f4c31fdb726cf3b9b9e88e",
	}
	for _, c := range configs {
		for _, s := range scheds {
			name := c.name + "/" + s.name
			t.Run(name, func(t *testing.T) {
				cfg := base
				c.edit(&cfg)
				res, err := Run(plat, cfg, s.mk(), digestTasks(t))
				if err != nil {
					t.Fatal(err)
				}
				if res.Migrations == 0 || res.DTMEvents == 0 {
					t.Fatalf("run has %d migrations and %d DTM events; the digest must cover both", res.Migrations, res.DTMEvents)
				}
				res.SchedulerHostTime = 0
				doc, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(doc)
				if got := hex.EncodeToString(sum[:]); got != golden[name] {
					t.Errorf("Result digest %s, want %s\nresult: %s", got, golden[name], doc)
				}
			})
		}
	}
}

// digestTasks is a mixed compute- and memory-bound load with staggered
// arrivals. The first three tasks leave free cores for PCMig's migrations;
// the fourth does not fit until one finishes, so its threads wait in the
// queue, and the arrivals and finishes move threads between epochs.
func digestTasks(t *testing.T) []*Task {
	t.Helper()
	var tasks []*Task
	for i, spec := range []struct {
		bench   string
		threads int
		arrival float64
	}{
		{"blackscholes", 4, 0},
		{"streamcluster", 3, 2e-3},
		{"x264", 4, 5e-3},
		{"canneal", 6, 8e-3},
	} {
		task, err := NewTask(i, MustBenchmark(spec.bench), spec.threads, spec.arrival, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	return tasks
}
