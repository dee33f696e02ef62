package hotpotato

// canon.go is the content-addressing layer of the v1 API: Canonicalize
// reduces a RunSpec to one normal form per semantic run, and SpecHash turns
// that normal form into a stable identity. The serving layer keys its result
// cache (and the /v1/run ETag) on SpecHash, so two clients asking the same
// question — however they spell it — share one simulation.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// SpecVersion is the wire version of the declarative API this package
// speaks. RunSpec and SweepSpec documents may state it explicitly
// ("version": "v1") or omit it; any other value fails validation, so a
// future v2 decoder can change semantics without silently reinterpreting
// old documents.
const SpecVersion = "v1"

// validateVersion accepts an absent ("") or current version string and
// rejects everything else with a field error.
func validateVersion(v string) error {
	if v != "" && v != SpecVersion {
		return fmt.Errorf("hotpotato: unknown spec version %q (want %q or omit the field)", v, SpecVersion)
	}
	return nil
}

// Canonicalize returns the canonical form of a validated spec: the unique
// representative of every RunSpec that declares the same run. It applies
// WithDefaults (which also spells the auto solver ""), pins Version to
// SpecVersion, resolves the workload fields that depend on the platform (a
// homogeneous total_threads of 0 becomes the chip's core count), drops the
// workload fields the declared kind ignores, normalizes zero-scale explicit
// tasks to scale 1, and nils empty pin maps and core cycles. Two specs that
// execute identically under ExecuteSpec canonicalize to equal values — field
// order and elided defaults never matter — while any semantically
// meaningful change survives.
//
// The method is idempotent and fails exactly when Validate fails; the
// returned spec runs bit-identically to the input.
func (s RunSpec) Canonicalize() (RunSpec, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return RunSpec{}, err
	}
	s.Version = SpecVersion
	s.Workload = s.Workload.canonical(s.Platform.Width * s.Platform.Height)
	if len(s.Scheduler.Pins) == 0 {
		s.Scheduler.Pins = nil
	}
	if len(s.Scheduler.Cores) == 0 {
		s.Scheduler.Cores = nil
	}
	return s, nil
}

// canonical reduces the workload declaration to exactly the fields its kind
// consults (the WorkloadSpec contract: the rest are ignored), with
// platform-dependent and per-task defaults resolved. numCores resolves the
// fill-the-chip default of the homogeneous kind.
func (w WorkloadSpec) canonical(numCores int) WorkloadSpec {
	switch w.Kind {
	case WorkloadHomogeneous:
		total := w.TotalThreads
		if total == 0 {
			total = numCores
		}
		sizes := w.Sizes
		if len(sizes) == 0 {
			sizes = []int{2, 4, 8}
		}
		return WorkloadSpec{Kind: w.Kind, Bench: w.Bench, TotalThreads: total, Sizes: sizes}
	case WorkloadRandom:
		return WorkloadSpec{Kind: w.Kind, Count: w.Count, Rate: w.Rate, Seed: w.Seed}
	case WorkloadExplicit:
		tasks := make([]TaskSpec, len(w.Tasks))
		for i, t := range w.Tasks {
			if t.WorkScale == 0 {
				t.WorkScale = 1
			}
			tasks[i] = t
		}
		return WorkloadSpec{Kind: w.Kind, Tasks: tasks}
	default:
		// Unknown kinds never pass Validate; keep them as-is so callers that
		// skip validation still get a deterministic value back.
		return w
	}
}

// SpecHash returns the content address of a spec: "sha256:" plus the
// lowercase hex SHA-256 of the canonical form's deterministic encoding. The
// encoding is encoding/json over Canonicalize's output — struct fields in
// declaration order, map keys (including text-keyed ThreadIDs) sorted,
// shortest-form floats — so the hash is a pure function of the run's
// semantics, not of its JSON spelling. Equal runs hash equal; any change
// that could alter the Result changes the hash.
//
// The hash is pinned by golden tests: it is part of the wire contract
// (/v1/run ETags, result-cache keys, sweep cell identities) and must not
// drift between releases without a SpecVersion bump.
func SpecHash(s RunSpec) (string, error) {
	c, err := s.Canonicalize()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("hotpotato: encoding canonical spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
