package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestAblationsJSON: `-exp ablations -quick -json` prints one JSON document,
// {"experiment":"ablations","result":{...}}, with every ablation in it.
func TestAblationsJSON(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout, jsonOut = out, true
	err = ablations(experiments.Options{WorkScale: 0.25})
	os.Stdout, jsonOut = stdout, false
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string                     `json:"experiment"`
		Result     map[string]json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, b)
	}
	if doc.Experiment != "ablations" {
		t.Errorf("experiment %q, want ablations", doc.Experiment)
	}
	for _, key := range []string{"tau_sweep", "ring_scope", "migration_cost", "analytic_vs_brute", "noise_sweep", "headroom_sweep", "contention"} {
		var rows []json.RawMessage
		if err := json.Unmarshal(doc.Result[key], &rows); err != nil || len(rows) == 0 {
			t.Errorf("result.%s: %d rows (%v), want some", key, len(rows), err)
		}
	}
}
