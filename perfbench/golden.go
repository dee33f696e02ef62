package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	hotpotato "repro"
)

// goldenPath is the committed digest of every simulated output a workload can
// produce, relative to the checkout root.
const goldenPath = "perfbench/golden.json"

// golden holds one digest per output: per Fig. 4 row, and per catalogue entry
// (index-aligned with the catalogue). Host-time fields are zeroed first.
type golden struct {
	CatalogSeed int64    `json:"catalog_seed"`
	Fig4a       []string `json:"fig4a"`
	Fig4b       []string `json:"fig4b"`
	Small       []string `json:"small"`
	Large       []string `json:"large"`
	Predict     []string `json:"predict"`
	Sparse      []string `json:"sparse"`
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}

// resultDigest identifies one simulated run: its spec hash and its Result
// with the host wall-clock field zeroed.
func resultDigest(hash string, res *hotpotato.Result) string {
	r := *res
	r.SchedulerHostTime = 0
	return digest([]byte(hash), mustJSON(r))
}

// predictBody is the part of a /v1/predict response the golden pins.
type predictBody struct {
	Prediction hotpotato.TwinPrediction `json:"prediction"`
	ModelHash  string                   `json:"model_hash"`
	SpecHash   string                   `json:"spec_hash"`
}

func predictDigest(p predictBody) string {
	return digest([]byte("predict"), []byte(p.SpecHash), []byte(p.ModelHash), mustJSON(p.Prediction))
}

func loadGolden() (*golden, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", goldenPath, err)
	}
	if g.CatalogSeed != catalogSeed {
		return nil, fmt.Errorf("%s was made for catalogue seed %d, not %d", goldenPath, g.CatalogSeed, catalogSeed)
	}
	return &g, nil
}

// runDirect executes a catalogue document in process, the oracle path every
// served or leased run must agree with. MaxTime stops are
// deterministic outcomes, not failures.
func runDirect(platforms *platformCache, doc []byte) (string, error) {
	spec, err := decodeSpec(doc)
	if err != nil {
		return "", err
	}
	hash, err := hotpotato.SpecHash(spec)
	if err != nil {
		return "", err
	}
	plat, err := platforms.get(spec.Platform)
	if err != nil {
		return "", err
	}
	res, err := hotpotato.ExecuteSpecOnPlatform(context.Background(), plat, spec)
	if err != nil && !errors.Is(err, hotpotato.ErrTimeout) {
		return "", err
	}
	return resultDigest(hash, res), nil
}

func predictDirect(platforms *platformCache, model *hotpotato.TwinModel, doc []byte) (string, error) {
	spec, err := decodeSpec(doc)
	if err != nil {
		return "", err
	}
	hash, err := hotpotato.SpecHash(spec)
	if err != nil {
		return "", err
	}
	plat, err := platforms.get(spec.Platform)
	if err != nil {
		return "", err
	}
	pred, err := hotpotato.TwinPredict(model, plat, spec)
	if err != nil {
		return "", err
	}
	return predictDigest(predictBody{Prediction: pred, ModelHash: model.Hash, SpecHash: hash}), nil
}

// platformCache shares one Platform per configuration across the direct
// runs of a regeneration (a Platform is immutable and safe to share).
type platformCache struct {
	mu sync.Mutex
	m  map[hotpotato.PlatformConfig]*hotpotato.Platform
}

func (c *platformCache) get(cfg hotpotato.PlatformConfig) (*hotpotato.Platform, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[cfg]; ok {
		return p, nil
	}
	p, err := hotpotato.NewPlatformFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	c.m[cfg] = p
	return p, nil
}

// digestAll maps fn over docs with two goroutines, keeping index order.
func digestAll(docs [][]byte, fn func([]byte) (string, error)) ([]string, error) {
	out := make([]string, len(docs))
	errs := make([]error, len(docs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += 2 {
				out[i], errs[i] = fn(docs[i])
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// regenGolden recomputes every digest through the direct (in-process,
// unserved) paths and rewrites the golden file. A change to a digest is a
// change to simulated output and must be justified on its own.
func regenGolden(cat *catalog) error {
	model, err := hotpotato.LoadTwinModelFile("TWIN_model.json")
	if err != nil {
		return err
	}
	platforms := &platformCache{m: map[hotpotato.PlatformConfig]*hotpotato.Platform{}}
	run := func(doc []byte) (string, error) { return runDirect(platforms, doc) }
	g := golden{CatalogSeed: catalogSeed}
	rowsA, rowsB, err := runFig4()
	if err != nil {
		return err
	}
	g.Fig4a, g.Fig4b = fig4Digests(rowsA, rowsB)
	if g.Small, err = digestAll(cat.small, run); err != nil {
		return err
	}
	if g.Large, err = digestAll(cat.large, run); err != nil {
		return err
	}
	if g.Sparse, err = digestAll(cat.sparse, run); err != nil {
		return err
	}
	if g.Predict, err = digestAll(cat.predict, func(doc []byte) (string, error) { return predictDirect(platforms, model, doc) }); err != nil {
		return err
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
