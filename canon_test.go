package hotpotato

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// decodeSpec is a test helper: JSON document → RunSpec via the wire decoder.
func decodeSpec(t *testing.T, doc string) RunSpec {
	t.Helper()
	var spec RunSpec
	if err := json.Unmarshal([]byte(doc), &spec); err != nil {
		t.Fatalf("decoding %s: %v", doc, err)
	}
	return spec
}

func mustHash(t *testing.T, spec RunSpec) string {
	t.Helper()
	h, err := SpecHash(spec)
	if err != nil {
		t.Fatalf("SpecHash: %v", err)
	}
	return h
}

// TestSpecHashGolden pins the exact hash values of representative documents.
// These constants are part of the wire contract — /v1/run ETags, result-cache
// keys, and sweep cell identities are all SpecHash values — so a change here
// is a breaking API change and must come with a SpecVersion bump, not a
// constant update.
func TestSpecHashGolden(t *testing.T) {
	golden := []struct {
		name, doc, hash string
	}{
		{
			"minimal 4x4 homogeneous",
			`{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
			"sha256:52201581a9fe578d713dacedbd969886b8e22cd18916fc0934682dd022718eae",
		},
		{
			"default chip random mix",
			`{"scheduler":{"name":"pcmig","tdtm":70},"workload":{"kind":"random","count":5,"rate":100,"seed":7}}`,
			"sha256:f6d97af52d2da674167566f5ddca34fbf3946b52a7f873633b59896016a4149c",
		},
		{
			"versioned explicit with pins",
			`{"version":"v1","platform":{"width":4,"height":4},"scheduler":{"name":"static","pins":{"0:0":0,"0:1":1}},"workload":{"kind":"explicit","tasks":[{"bench":"swaptions","threads":2}]}}`,
			"sha256:d6a362eb7d1bdf540d3a444d2a6e6aeef0f231e98b4dd36b443606ff934c02e4",
		},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			if h := mustHash(t, decodeSpec(t, g.doc)); h != g.hash {
				t.Errorf("hash drifted:\n got  %s\n want %s\n(SpecHash is wire contract: a semantic encoding change needs a SpecVersion bump)", h, g.hash)
			}
		})
	}
}

// TestSpecHashEqualAcrossSpellings proves the canonicalization property:
// field order, elided defaults, an explicit version, explicit fill-the-chip
// thread counts, explicit default sizes, unit work scales, and stray fields
// of other workload kinds all spell the same run and must hash equal.
func TestSpecHashEqualAcrossSpellings(t *testing.T) {
	base := `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`
	want := mustHash(t, decodeSpec(t, base))

	equivalent := map[string]string{
		"field order":                   `{"workload":{"total_threads":4,"kind":"homogeneous","bench":"blackscholes"},"scheduler":{"name":"hotpotato"},"platform":{"height":4,"width":4}}`,
		"explicit v1":                   `{"version":"v1","platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
		"explicit default sizes":        `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4,"sizes":[2,4,8]}}`,
		"stray random fields":           `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4,"seed":99,"count":3,"rate":5}}`,
		"explicit defaults spelled out": `{"platform":{"width":4,"height":4,"core_edge":0.0009},"sim":{"tdtm":70,"dtm_enabled":true},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
	}
	for name, doc := range equivalent {
		if got := mustHash(t, decodeSpec(t, doc)); got != want {
			t.Errorf("%s: hash %s differs from base %s; equivalent spellings must hash equal", name, got, want)
		}
	}

	// Fill-the-chip: an elided homogeneous total_threads means one thread per
	// core, so on a 4×4 chip it equals an explicit 16.
	elided := decodeSpec(t, `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes"}}`)
	full := decodeSpec(t, `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":16}}`)
	if mustHash(t, elided) != mustHash(t, full) {
		t.Error("elided total_threads did not hash like the explicit chip-filling count")
	}

	// Unit work scale: explicit workloads with work_scale 0 and 1 are the
	// same run (0 means 1 in the task model).
	a := decodeSpec(t, `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"explicit","tasks":[{"bench":"x264","threads":2}]}}`)
	b := decodeSpec(t, `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"explicit","tasks":[{"bench":"x264","threads":2,"work_scale":1}]}}`)
	if mustHash(t, a) != mustHash(t, b) {
		t.Error("work_scale 0 and 1 hashed differently; both mean unit scale")
	}

	// Programmatic construction (no JSON in sight) matches the wire path.
	prog := RunSpec{
		Platform:  DefaultPlatformConfig(4, 4),
		Scheduler: SchedulerSpec{Name: "hotpotato"},
		Workload:  WorkloadSpec{Kind: WorkloadHomogeneous, Bench: "blackscholes", TotalThreads: 4},
	}
	if got := mustHash(t, prog); got != want {
		t.Errorf("programmatic spec hashed %s, wire spec %s", got, want)
	}
}

// TestAutoSolverIsTheEmptySolver: solver "auto" and "" run identically, so
// they are one spelling of one run — one SpecHash, and one PlatformCache
// entry for the platform both specs build.
func TestAutoSolverIsTheEmptySolver(t *testing.T) {
	base := `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`
	empty := decodeSpec(t, base)
	auto := decodeSpec(t, strings.Replace(base, `"height":4`, `"height":4,"thermal":{"solver":"auto"}`, 1))
	if auto.Platform.Thermal.Solver != SolverAuto {
		t.Fatalf("decoded solver %q, want %q", auto.Platform.Thermal.Solver, SolverAuto)
	}
	if a, e := mustHash(t, auto), mustHash(t, empty); a != e {
		t.Errorf(`solver "auto" hashed %s, solver "" %s`, a, e)
	}

	c := NewPlatformCache()
	for _, spec := range []RunSpec{empty, auto} {
		if _, err := c.Get(spec.WithDefaults().Platform); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := c.Stats(); c.Len() != 1 || misses != 1 || hits != 1 {
		t.Errorf("want 1 entry (1 miss / 1 hit), got %d entries (%d misses / %d hits)", c.Len(), misses, hits)
	}
}

// TestSpecHashSeparatesSemanticChanges: any change that could alter the
// Result must change the hash.
func TestSpecHashSeparatesSemanticChanges(t *testing.T) {
	base := `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`
	want := mustHash(t, decodeSpec(t, base))

	different := map[string]string{
		"grid size":     `{"platform":{"width":8,"height":8},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
		"scheduler":     `{"platform":{"width":4,"height":4},"scheduler":{"name":"pcmig"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
		"tdtm":          `{"platform":{"width":4,"height":4},"sim":{"tdtm":71},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
		"benchmark":     `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"x264","total_threads":4}}`,
		"thread count":  `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":8}}`,
		"solver":        `{"platform":{"width":4,"height":4,"thermal":{"solver":"sparse"}},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
		"dtm off":       `{"platform":{"width":4,"height":4},"sim":{"dtm_enabled":false},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
		"rotation tau":  `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato","tau":0.001},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`,
		"instance size": `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4,"sizes":[4]}}`,
	}
	seen := map[string]string{"base": want}
	for name, doc := range different {
		got := mustHash(t, decodeSpec(t, doc))
		if got == want {
			t.Errorf("%s: semantic change did not change the hash (%s)", name, got)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s and %s collided on %s", name, prev, got)
		}
		seen[got] = name
	}
}

// TestCanonicalizeIdempotent: canonical forms are fixed points, and the
// canonical spec still validates and describes the same run.
func TestCanonicalizeIdempotent(t *testing.T) {
	spec := decodeSpec(t, `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes"}}`)
	once, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(once, twice) {
		t.Errorf("Canonicalize is not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
	if once.Version != SpecVersion {
		t.Errorf("canonical version = %q, want %q", once.Version, SpecVersion)
	}
	if once.Workload.TotalThreads != 16 {
		t.Errorf("fill-the-chip total_threads not resolved: %d", once.Workload.TotalThreads)
	}
	if err := once.Validate(); err != nil {
		t.Errorf("canonical spec no longer validates: %v", err)
	}
}

// TestSpecVersionValidation: absent and "v1" pass, anything else is a field
// error naming the version, on RunSpec and SweepSpec alike.
func TestSpecVersionValidation(t *testing.T) {
	valid := decodeSpec(t, `{"platform":{"width":4,"height":4},"scheduler":{"name":"hotpotato"},"workload":{"kind":"homogeneous","bench":"blackscholes","total_threads":4}}`)
	for _, v := range []string{"", SpecVersion} {
		s := valid
		s.Version = v
		if err := s.Validate(); err != nil {
			t.Errorf("version %q rejected: %v", v, err)
		}
	}
	for _, v := range []string{"v2", "V1", "1", "v1.1"} {
		s := valid
		s.Version = v
		err := s.Validate()
		if err == nil {
			t.Errorf("version %q accepted", v)
			continue
		}
		if !strings.Contains(err.Error(), "version") {
			t.Errorf("version error does not name the field: %v", err)
		}
		if _, herr := SpecHash(s); herr == nil {
			t.Errorf("SpecHash accepted invalid version %q", v)
		}

		sweep := SweepSpec{Version: v, Base: valid}
		if err := sweep.Validate(); err == nil {
			t.Errorf("SweepSpec version %q accepted", v)
		}
	}
}

// TestSpecHashInvalidSpec: hashing an invalid spec fails with the same error
// Validate reports, never with a bogus hash.
func TestSpecHashInvalidSpec(t *testing.T) {
	if h, err := SpecHash(RunSpec{Scheduler: SchedulerSpec{Name: "nope"}, Workload: WorkloadSpec{Kind: "bogus"}}); err == nil {
		t.Errorf("invalid spec hashed to %s", h)
	}
}
