package hotpotato

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
)

// decisionGoldenPath holds one decision-stream digest per harness cell,
// keyed by the harnessFigures name, in cell order.
const decisionGoldenPath = "testdata/decision_digests.json"

// TestHarnessDecisionDigests pins what the schedulers chose in every cell
// of the harness figures, at one and at four workers: for each epoch its
// index, its simulated time, the thread→core mapping, the per-core
// frequencies and the migration count (decisionDigest). Temperatures,
// powers and host times are left out. A numeric change that moves
// temperatures without changing any decision changes the rows digests of
// TestHarnessGoldenDigests but none of these; a change that flips a
// decision names the cell here. A failing figure prints its whole line for
// decisionGoldenPath.
func TestHarnessDecisionDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every harness figure twice")
	}
	raw, err := os.ReadFile(decisionGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cellTracer = nil })
	for _, workers := range []int{1, 4} {
		opts := harnessQuick
		opts.Workers = workers
		for _, f := range harnessFigures {
			var mu sync.Mutex
			var cells []*decisionDigest
			cellTracer = func(cell int) EpochTracer {
				mu.Lock()
				defer mu.Unlock()
				if cell >= len(cells) {
					cells = append(cells, make([]*decisionDigest, cell+1-len(cells))...)
				}
				cells[cell] = newDecisionDigest()
				return cells[cell]
			}
			if _, err := f.run(opts); err != nil {
				t.Fatalf("%s, workers=%d: %v", f.name, workers, err)
			}
			got := make([]string, len(cells))
			for i, d := range cells {
				if d == nil || d.epochs == 0 {
					t.Fatalf("%s, workers=%d: cell %d recorded no epoch", f.name, workers, i)
				}
				got[i] = d.sum()
			}
			if !slices.Equal(got, golden[f.name]) {
				want := golden[f.name]
				for i := range got {
					if i >= len(want) || got[i] != want[i] {
						t.Errorf("%s, workers=%d: cell %d decision digest %s, want %s", f.name, workers, i, got[i], digestAt(want, i))
						break
					}
				}
				line, _ := json.Marshal(got)
				t.Errorf("%s, workers=%d: %d cells, golden has %d; recorded line:\n%q: %s", f.name, workers, len(got), len(want), f.name, line)
			}
		}
	}
}

// digestAt is s[i], or "(none)" past the end of s.
func digestAt(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(none)"
}

// decisionDigest is an obs.Tracer that hashes the decision part of each
// epoch event: Epoch, Time, the Mapping in key order, Freqs and Migrations,
// as fixed-width little-endian words (floats by their bits), each
// variable-length part prefixed by its length.
type decisionDigest struct {
	h      hash.Hash
	buf    []byte
	keys   []string
	epochs int
}

func newDecisionDigest() *decisionDigest { return &decisionDigest{h: sha256.New()} }

func (d *decisionDigest) RecordEpoch(ev obs.EpochEvent) {
	b := d.buf[:0]
	word := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	word(uint64(ev.Epoch))
	word(math.Float64bits(ev.Time))
	d.keys = d.keys[:0]
	for k := range ev.Mapping {
		d.keys = append(d.keys, k)
	}
	slices.Sort(d.keys)
	word(uint64(len(d.keys)))
	for _, k := range d.keys {
		word(uint64(len(k)))
		b = append(b, k...)
		word(uint64(ev.Mapping[k]))
	}
	word(uint64(len(ev.Freqs)))
	for _, f := range ev.Freqs {
		word(math.Float64bits(f))
	}
	word(uint64(ev.Migrations))
	d.h.Write(b)
	d.buf = b
	d.epochs++
}

func (d *decisionDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// TestDecisionDigestSeesEachField checks that every digested field changes
// the digest, and that temperatures do not.
func TestDecisionDigestSeesEachField(t *testing.T) {
	base := func() obs.EpochEvent {
		return obs.EpochEvent{Epoch: 3, Time: 0.0015, Mapping: map[string]int{"0:0": 1, "0:1": 2},
			Freqs: []float64{4e9, 3e9}, CoreTemps: []float64{60, 61}, Migrations: 1}
	}
	digest := func(edit func(*obs.EpochEvent)) string {
		ev := base()
		edit(&ev)
		d := newDecisionDigest()
		d.RecordEpoch(ev)
		return d.sum()
	}
	ref := digest(func(*obs.EpochEvent) {})
	edits := map[string]func(*obs.EpochEvent){
		"epoch":      func(e *obs.EpochEvent) { e.Epoch++ },
		"time":       func(e *obs.EpochEvent) { e.Time = math.Nextafter(e.Time, 1) },
		"mapping":    func(e *obs.EpochEvent) { e.Mapping["0:1"] = 3 },
		"thread":     func(e *obs.EpochEvent) { delete(e.Mapping, "0:1"); e.Mapping["0:2"] = 2 },
		"freqs":      func(e *obs.EpochEvent) { e.Freqs[1] = 2e9 },
		"migrations": func(e *obs.EpochEvent) { e.Migrations++ },
	}
	for name, edit := range edits {
		if digest(edit) == ref {
			t.Errorf("changing %s leaves the digest unchanged", name)
		}
	}
	if got := digest(func(e *obs.EpochEvent) { e.CoreTemps[0] = 70; e.PeakTemp = 70 }); got != ref {
		t.Error("temperatures change the decision digest")
	}
	if len(ref) != 64 {
		t.Errorf("digest %q is not a hex SHA-256", ref)
	}
}
