package hotpotato

// sweep.go is the batch half of the v1 API: a SweepSpec declares a
// cross-product of runs as one document, Expand turns it into ordered
// RunSpec cells, and ExecuteSweep runs the cells over a bounded worker pool,
// emitting each result as it finishes. POST /v1/batch and
// `hotpotato-sim -sweep` are both thin shells around these functions, and
// the SweepStarted/SweepResultRecord/SweepProgress/SweepSummary types are
// the shared wire records of their NDJSON streams.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxSweepCells is the hard ceiling on a single sweep's cross-product. A
// sweep above it fails Expand before any cell materializes — a declarative
// document a few hundred bytes long can otherwise demand billions of runs.
// Servers typically enforce a much lower admission limit on top (see
// internal/service Config.MaxSweepCells).
const MaxSweepCells = 65536

// SweepAxes are the cross-product dimensions of a SweepSpec. Each axis is a
// list of section overrides; an empty axis keeps the base spec's section and
// contributes a factor of one to the product. Within a cell the overrides
// compose in a fixed order — platform, then workload, then scheduler, then
// solver (written into the platform's thermal section), then seed (written
// into the workload) — so a solver axis composes with a platform axis and a
// seed axis with a workload axis.
type SweepAxes struct {
	// Platforms replaces the base platform wholesale; each entry is decoded
	// over the paper defaults at its own grid size, exactly like a RunSpec
	// platform section.
	Platforms []PlatformConfig `json:"platforms,omitempty"`
	// Workloads replaces the base workload wholesale.
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Schedulers replaces the base scheduler wholesale.
	Schedulers []SchedulerSpec `json:"schedulers,omitempty"`
	// Solvers sets platform.thermal.solver per cell ("auto"/"dense"/
	// "sparse"; "" keeps the platform's choice).
	Solvers []string `json:"solvers,omitempty"`
	// Seeds sets workload.seed per cell. Only the random workload kind
	// consults a seed; on other kinds the axis expands cells that
	// canonicalize (and hash) identically.
	Seeds []int64 `json:"seeds,omitempty"`
}

// SweepSpec declares a batch of runs as one serializable document: a base
// RunSpec plus cross-product axes. Decoding applies the same
// decode-over-defaults rule as RunSpec to the base and to every platform
// axis entry, so minimal documents stay minimal.
type SweepSpec struct {
	// Version is the wire version: absent or SpecVersion ("v1"), like
	// RunSpec.Version. Each expanded cell carries it into its own hash.
	Version string `json:"version,omitempty"`
	// Base is the spec every cell starts from; absent sections keep the
	// paper defaults.
	Base RunSpec `json:"base"`
	// Axes are the cross-product dimensions applied over Base.
	Axes SweepAxes `json:"axes"`
}

// UnmarshalJSON decodes the document with the RunSpec overlay rules: the
// base section and each platforms axis entry are decoded over the paper
// defaults (an absent base is the default 8×8 document).
func (s *SweepSpec) UnmarshalJSON(b []byte) error {
	var shadow struct {
		Version string          `json:"version"`
		Base    json.RawMessage `json:"base"`
		Axes    struct {
			Platforms  []json.RawMessage `json:"platforms"`
			Workloads  []WorkloadSpec    `json:"workloads"`
			Schedulers []SchedulerSpec   `json:"schedulers"`
			Solvers    []string          `json:"solvers"`
			Seeds      []int64           `json:"seeds"`
		} `json:"axes"`
	}
	if err := json.Unmarshal(b, &shadow); err != nil {
		return err
	}
	var base RunSpec
	if isPresent(shadow.Base) {
		if err := json.Unmarshal(shadow.Base, &base); err != nil {
			return fmt.Errorf("hotpotato: base section: %w", err)
		}
	}
	plats := make([]PlatformConfig, 0, len(shadow.Axes.Platforms))
	for i, raw := range shadow.Axes.Platforms {
		p, err := decodePlatformSection(raw)
		if err != nil {
			return fmt.Errorf("hotpotato: platforms axis entry %d: %w", i, err)
		}
		plats = append(plats, p)
	}
	*s = SweepSpec{
		Version: shadow.Version,
		Base:    base,
		Axes: SweepAxes{
			Platforms:  plats,
			Workloads:  shadow.Axes.Workloads,
			Schedulers: shadow.Axes.Schedulers,
			Solvers:    shadow.Axes.Solvers,
			Seeds:      shadow.Axes.Seeds,
		},
	}
	return nil
}

// CellCount returns the size of the sweep's cross-product: the product of
// every non-empty axis length (an empty sweep is one cell — the base spec).
// The count is computed without materializing cells and saturates at
// MaxSweepCells+1, so callers can reject oversized sweeps cheaply.
func (s SweepSpec) CellCount() int {
	count := 1
	for _, n := range []int{
		len(s.Axes.Platforms), len(s.Axes.Workloads), len(s.Axes.Schedulers),
		len(s.Axes.Solvers), len(s.Axes.Seeds),
	} {
		if n == 0 {
			continue
		}
		count *= n
		if count > MaxSweepCells {
			return MaxSweepCells + 1
		}
	}
	return count
}

// Validate checks the declaratively-visible constraints of the sweep
// document itself: the version string and every solvers axis entry. Per-cell
// constraints (does the expanded spec validate?) are checked on the expanded
// cells — use Expand followed by RunSpec.Validate or SpecHash, as
// ExecuteSweep and the /v1/batch handler do.
func (s SweepSpec) Validate() error {
	if err := validateVersion(s.Version); err != nil {
		return err
	}
	for i, solver := range s.Axes.Solvers {
		if err := ValidateSolver(solver); err != nil {
			return fmt.Errorf("hotpotato: solvers axis entry %d: %w", i, err)
		}
	}
	return nil
}

// SweepCell is one expanded run of a sweep: its position in the expansion
// order and the complete RunSpec it declares.
type SweepCell struct {
	// Index is the cell's position in the deterministic expansion order,
	// 0-based. Stream records and result archives key on it.
	Index int `json:"index"`
	// Spec is the cell's complete run declaration, defaults applied.
	Spec RunSpec `json:"spec"`
}

// Expand materializes the sweep's cells in their canonical order: nested
// loops with platforms outermost, then workloads, schedulers, solvers, and
// seeds innermost (the innermost axis varies fastest). Expansion is
// deterministic and purely structural — cells are not validated, so a sweep
// whose third scheduler is unknown still expands and reports the problem per
// cell downstream. The only error is a cross-product above MaxSweepCells.
func (s SweepSpec) Expand() ([]SweepCell, error) {
	if n := s.CellCount(); n > MaxSweepCells {
		return nil, fmt.Errorf("hotpotato: sweep expands to more than %d cells", MaxSweepCells)
	}
	// A nil axis iterates once with the sentinel index -1 (keep the base).
	idx := func(n int) []int {
		if n == 0 {
			return []int{-1}
		}
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var cells []SweepCell
	for _, pi := range idx(len(s.Axes.Platforms)) {
		for _, wi := range idx(len(s.Axes.Workloads)) {
			for _, si := range idx(len(s.Axes.Schedulers)) {
				for _, vi := range idx(len(s.Axes.Solvers)) {
					for _, di := range idx(len(s.Axes.Seeds)) {
						spec := s.Base
						spec.Version = s.Version
						if pi >= 0 {
							spec.Platform = s.Axes.Platforms[pi]
						}
						if wi >= 0 {
							spec.Workload = s.Axes.Workloads[wi]
						}
						if si >= 0 {
							spec.Scheduler = s.Axes.Schedulers[si]
						}
						if vi >= 0 {
							spec.Platform.Thermal.Solver = s.Axes.Solvers[vi]
						}
						if di >= 0 {
							spec.Workload.Seed = s.Axes.Seeds[di]
						}
						cells = append(cells, SweepCell{Index: len(cells), Spec: spec.WithDefaults()})
					}
				}
			}
		}
	}
	return cells, nil
}

// SweepCellResult is the outcome of one sweep cell, as handed to
// ExecuteSweep's emit callback. Exactly one of the terminal modes applies:
// Err nil with a Result is a completed run; Err wrapping ErrTimeout still
// carries the partial Result; any other Err (ErrCanceled, validation,
// construction) is a failed cell.
type SweepCellResult struct {
	// Index is the cell's expansion-order position.
	Index int
	// Spec is the canonical form of the cell's spec ("" Hash means
	// canonicalization itself failed and Spec is the raw expanded cell).
	Spec RunSpec
	// Hash is the cell's SpecHash, empty when the cell's spec is invalid.
	Hash string
	// Result is the run's outcome; nil when the cell failed before running.
	Result *Result
	// Cached reports that Result came from a cache instead of a fresh run
	// (only runners that consult a cache, like the serving layer's, set it).
	Cached bool
	// Err is the cell's failure, nil on success.
	Err error
}

// SweepOptions tunes ExecuteSweep.
type SweepOptions struct {
	// Workers bounds how many cells run concurrently; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Run executes one cell's canonical spec; the returned bool reports a
	// cache hit. Nil means ExecuteSpecOnPlatform on a platform from a
	// PlatformCache that lives for the call: each distinct PlatformConfig
	// is built once, on first use, and its cells share it until the call
	// returns. The serving layer substitutes a runner that consults its
	// result cache, worker semaphore and long-lived platform cache. Run must
	// be safe for concurrent calls.
	Run func(ctx context.Context, cell SweepCell) (*Result, bool, error)
}

// ExecuteSweep expands a sweep and executes every cell over a bounded worker
// pool, calling emit exactly once per cell as cells finish (completion
// order, not index order — records carry their Index). emit is never called
// concurrently with itself. Cells whose specs fail validation are emitted
// with the validation error and never run; cancelling ctx stops in-flight
// cells within one scheduler epoch (their results carry ErrCanceled) and
// fails the not-yet-started remainder immediately.
//
// ExecuteSweep returns an error only when the sweep itself is unusable (bad
// version, oversized cross-product) or ctx was cancelled; per-cell failures
// live in the emitted results. Determinism: with the default runner the set
// of emitted (Index, Hash, Result) triples is identical at any Workers
// value, because each cell is an independent deterministic simulation.
func ExecuteSweep(ctx context.Context, spec SweepSpec, opts SweepOptions, emit func(SweepCellResult)) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	cells, err := spec.Expand()
	if err != nil {
		return err
	}
	return ExecuteSweepCells(ctx, cells, opts, emit)
}

// platformRunner is ExecuteSweepCells' default runner: it builds each
// distinct PlatformConfig once, in one PlatformCache shared by its cells, and
// runs every cell on its platform. tracer, when not nil, gives each cell an
// EpochTracer of its own, by the cell's Index.
func platformRunner(tracer func(cell int) EpochTracer) func(context.Context, SweepCell) (*Result, bool, error) {
	plats := NewPlatformCache()
	return func(ctx context.Context, cell SweepCell) (*Result, bool, error) {
		plat, err := plats.Get(cell.Spec.Platform)
		if err != nil {
			return nil, false, err
		}
		var tracers []EpochTracer
		if tracer != nil {
			tracers = []EpochTracer{tracer(cell.Index)}
		}
		res, err := ExecuteSpecOnPlatform(ctx, plat, cell.Spec, tracers...)
		return res, false, err
	}
}

// ExecuteSweepCells is ExecuteSweep on pre-expanded cells — the serving
// path, where the handler has already expanded (and admission-checked) the
// sweep before streaming begins. See ExecuteSweep for the contract.
func ExecuteSweepCells(ctx context.Context, cells []SweepCell, opts SweepOptions, emit func(SweepCellResult)) error {
	n := len(cells)
	if n == 0 {
		return nil
	}
	if opts.Run == nil {
		opts.Run = platformRunner(nil)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var emitMu sync.Mutex
	emitOne := func(r SweepCellResult) {
		emitMu.Lock()
		defer emitMu.Unlock()
		emit(r)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				cell := cells[i]
				out := SweepCellResult{Index: cell.Index, Spec: cell.Spec}
				canon, err := cell.Spec.Canonicalize()
				if err != nil {
					out.Err = fmt.Errorf("cell %d: %w", cell.Index, err)
					emitOne(out)
					continue
				}
				out.Spec = canon
				// Canonicalize succeeded, so SpecHash cannot fail.
				out.Hash, _ = SpecHash(canon)
				if ctx.Err() != nil {
					out.Err = fmt.Errorf("cell %d: %w: %v", cell.Index, ErrCanceled, context.Cause(ctx))
					emitOne(out)
					continue
				}
				out.Result, out.Cached, out.Err = opts.Run(ctx, SweepCell{Index: cell.Index, Spec: canon})
				emitOne(out)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Sweep stream records: the NDJSON/SSE wire shapes shared by POST /v1/batch
// and `hotpotato-sim -sweep`. Every record is one JSON object with a "type"
// discriminator — "sweep" (stream header), "result" (one per cell, in
// completion order), "progress" (mid-stream heartbeat), and "summary" (the
// terminal record).
type (
	// SweepStarted is the stream header: Type "sweep" plus the total cell
	// count, emitted before any cell finishes.
	SweepStarted struct {
		Type      string `json:"type"`
		Total     int    `json:"total"`
		RequestID string `json:"request_id,omitempty"`
		// SweepID names the sweep in the dispatcher's archive; only the
		// fabric dispatcher sets it (single-node streams omit it).
		SweepID string `json:"sweep_id,omitempty"`
	}
	// SweepResultRecord is one finished cell. Status is "ok" (Result
	// present; Error names a MaxTime stop when set), "failed", or
	// "canceled". Cached marks results served from the result cache.
	SweepResultRecord struct {
		Type   string  `json:"type"`
		Index  int     `json:"index"`
		Hash   string  `json:"hash,omitempty"`
		Status string  `json:"status"`
		Cached bool    `json:"cached,omitempty"`
		Error  string  `json:"error,omitempty"`
		Result *Result `json:"result,omitempty"`
	}
	// SweepProgress is the heartbeat record: how many cells have finished
	// so far. It keeps idle connections alive through proxies during long
	// cells and lets clients render progress bars.
	SweepProgress struct {
		Type      string  `json:"type"`
		Done      int     `json:"done"`
		Total     int     `json:"total"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	// SweepSummary is the terminal record of a stream; its presence tells a
	// client the sweep ended rather than the connection dying mid-flight.
	// Completed+Failed+Canceled always equals the number of observed
	// result records (Total when the stream ran to completion).
	SweepSummary struct {
		Type      string  `json:"type"`
		Total     int     `json:"total"`
		Completed int     `json:"completed"`
		Failed    int     `json:"failed"`
		Canceled  int     `json:"canceled"`
		CacheHits int     `json:"cache_hits"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
)

// Observe counts one result record into the summary. Every record lands in
// exactly one of Completed/Failed/Canceled (keyed on Status, with
// unknown statuses counted as failed so totals still partition), plus
// CacheHits when Cached. It is the only status classifier: the shared
// /v1/batch stream loop (fabric.StreamSweep, behind both hotpotato-server and
// the dispatcher), the dispatcher's per-sweep tallies and
// `hotpotato-sim -sweep` all count through it, so their summaries classify
// identically.
func (s *SweepSummary) Observe(rec SweepResultRecord) {
	switch rec.Status {
	case "ok":
		s.Completed++
	case "canceled":
		s.Canceled++
	default:
		s.Failed++
	}
	if rec.Cached {
		s.CacheHits++
	}
}

// NewSweepResultRecord classifies one cell outcome into its wire record:
// Status "ok" for completed runs (including MaxTime stops, whose partial
// Result travels with the timeout text in Error), "canceled" for runs ended
// by context cancellation or deadline expiry — whether the runner wrapped
// ErrCanceled or returned the raw context error — and "failed" for
// everything else.
func NewSweepResultRecord(r SweepCellResult) SweepResultRecord {
	rec := SweepResultRecord{
		Type: "result", Index: r.Index, Hash: r.Hash,
		Cached: r.Cached, Result: r.Result,
	}
	switch {
	case r.Err == nil:
		rec.Status = "ok"
	case errors.Is(r.Err, ErrTimeout):
		rec.Status = "ok"
		rec.Error = r.Err.Error()
	case errors.Is(r.Err, ErrCanceled),
		errors.Is(r.Err, context.Canceled),
		errors.Is(r.Err, context.DeadlineExceeded):
		rec.Status = "canceled"
		rec.Error = r.Err.Error()
		rec.Result = nil
	default:
		rec.Status = "failed"
		rec.Error = r.Err.Error()
		rec.Result = nil
	}
	return rec
}
