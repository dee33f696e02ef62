package fabric

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	hotpotato "repro"
)

// Archive is the dispatcher's durable result store. Two trees under one
// root:
//
//	by-hash/<hex[:2]>/<hex>.json       one completed cell per SpecHash
//	sweeps/<YYYY-MM-DD>/<sweep-id>.json one manifest per completed sweep
//
// by-hash is content-addressed: simulations are deterministic, so a record
// stored under its spec's hash is never stale and a later sweep containing
// the same cell replays it without leasing a worker. Only status "ok"
// records are archived — failures are worth retrying, and canceled cells
// carry no result. Writes are atomic (tmp + rename) so a crashed dispatcher
// never leaves a torn record for the hit path to read.
type Archive struct {
	root  string
	clock Clock
}

// Manifest is the per-sweep archive index entry: what ran, when, and how it
// went. It mirrors the stream's terminal summary plus identity fields.
type Manifest struct {
	SweepID   string  `json:"sweep_id"`
	RequestID string  `json:"request_id,omitempty"`
	TraceID   string  `json:"trace_id,omitempty"`
	Total     int     `json:"total"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	Canceled  int     `json:"canceled"`
	CacheHits int     `json:"cache_hits"`
	Requeues  int     `json:"requeues,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Date is the manifest's sweeps/<date>/ directory, stamped on listing
	// (not stored in the file — the directory is the source of truth).
	Date string `json:"date,omitempty"`
}

// NewArchive opens (creating if needed) an archive rooted at dir. clock
// dates the sweep manifests; nil means the real clock.
func NewArchive(dir string, clock Clock) (*Archive, error) {
	if clock == nil {
		clock = realClock{}
	}
	for _, sub := range []string{"by-hash", "sweeps"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("fabric: create archive: %w", err)
		}
	}
	return &Archive{root: dir, clock: clock}, nil
}

// hashPath maps a SpecHash ("sha256:<hex>") to its by-hash file, rejecting
// anything that is not a plain hex digest so archive keys can never escape
// the root.
func (a *Archive) hashPath(hash string) (string, error) {
	hex, ok := strings.CutPrefix(hash, "sha256:")
	if !ok || len(hex) != 64 {
		return "", fmt.Errorf("fabric: malformed spec hash %q", hash)
	}
	for _, c := range hex {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("fabric: malformed spec hash %q", hash)
		}
	}
	return filepath.Join(a.root, "by-hash", hex[:2], hex+".json"), nil
}

// Get returns the archived record for hash, if any. The returned record's
// Index is the archived sweep's — callers re-stamp it for the current sweep.
func (a *Archive) Get(hash string) (hotpotato.SweepResultRecord, bool) {
	var rec hotpotato.SweepResultRecord
	path, err := a.hashPath(hash)
	if err != nil {
		return rec, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, false
	}
	if json.Unmarshal(data, &rec) != nil || rec.Status != "ok" {
		return rec, false
	}
	return rec, true
}

// Put archives one completed cell under its SpecHash. Non-"ok" records are
// rejected — the archive stores only replayable results.
func (a *Archive) Put(hash string, rec hotpotato.SweepResultRecord) error {
	if rec.Status != "ok" {
		return fmt.Errorf("fabric: refusing to archive status %q", rec.Status)
	}
	path, err := a.hashPath(hash)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return writeAtomic(path, data)
}

// WriteManifest records a completed sweep under sweeps/<date>/<id>.json.
func (a *Archive) WriteManifest(sweepID string, m Manifest) error {
	if strings.ContainsAny(sweepID, "/\\") || sweepID == "" {
		return fmt.Errorf("fabric: malformed sweep id %q", sweepID)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	day := a.clock.Now().UTC().Format("2006-01-02")
	return writeAtomic(filepath.Join(a.root, "sweeps", day, sweepID+".json"), data)
}

// RecentManifests returns up to limit sweep manifests, newest first (date
// directories descending, then file names descending within a day — sweep
// IDs carry the dispatcher's start time and a zero-padded sequence, so
// their lexicographic order is their creation order). Unreadable entries are skipped: the
// listing is an observability surface, not an integrity check.
func (a *Archive) RecentManifests(limit int) []Manifest {
	if a == nil || limit <= 0 {
		return nil
	}
	days, err := os.ReadDir(filepath.Join(a.root, "sweeps"))
	if err != nil {
		return nil
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Name() > days[j].Name() })
	var out []Manifest
	for _, day := range days {
		if !day.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(a.root, "sweeps", day.Name()))
		if err != nil {
			continue
		}
		sort.Slice(files, func(i, j int) bool { return files[i].Name() > files[j].Name() })
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(a.root, "sweeps", day.Name(), f.Name()))
			if err != nil {
				continue
			}
			var m Manifest
			if json.Unmarshal(data, &m) != nil || m.SweepID == "" {
				continue
			}
			m.Date = day.Name()
			out = append(out, m)
			if len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// writeAtomic writes data to path via a same-directory temp file and rename,
// so readers only ever see complete files.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
