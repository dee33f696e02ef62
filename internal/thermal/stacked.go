package thermal

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/matrix"
)

// StackedConfig extends Config for 3D-stacked chips (the paper's §VII
// future-work direction, explored with CoMeT [25] there): `Layers` silicon
// core layers are bonded vertically, with only the top layer adjacent to the
// spreader/heatsink stack. Lower layers must evacuate heat through the
// layers above them — the defining thermal challenge of 3D integration.
type StackedConfig struct {
	Config
	// Layers is the number of stacked core layers (≥ 1; 1 reduces to the
	// planar model).
	Layers int
	// GInterLayer is the vertical conductance between vertically adjacent
	// cores of neighbouring layers (through the bonding/TSV interface),
	// W/K per core.
	GInterLayer float64
}

// DefaultStackedConfig returns a calibrated two-layer stack: the bonding
// interface conducts slightly better than the die-to-spreader path, but the
// buried layer still runs visibly hotter.
func DefaultStackedConfig(layers int) StackedConfig {
	return StackedConfig{
		Config:      DefaultConfig(),
		Layers:      layers,
		GInterLayer: 0.30,
	}
}

// NewStacked builds the RC model of a 3D-stacked chip: `Layers` copies of
// the floorplan's core grid, stacked with inter-layer conductances, topped
// by the spreader layer and heatsink of the planar model. Core (layer l,
// position i) is node l·n + i; layer Layers-1 is adjacent to the spreader.
// All of Model's methods — and therefore the Algorithm 1 rotation
// calculator — work unchanged, with NumCores() = Layers·n.
func NewStacked(fp *floorplan.Floorplan, cfg StackedConfig) (*Model, error) {
	if err := validate(cfg.Config); err != nil {
		return nil, err
	}
	if cfg.Layers < 1 {
		return nil, fmt.Errorf("thermal: need at least one layer, got %d", cfg.Layers)
	}
	if cfg.GInterLayer <= 0 {
		return nil, fmt.Errorf("thermal: inter-layer conductance must be positive, got %g", cfg.GInterLayer)
	}

	nPer := fp.NumCores()
	n := cfg.Layers * nPer
	m := &Model{fp: fp, cfg: cfg.Config, n: n, N: n + nPer + 1}
	if err := m.finish(m.buildStacked(cfg, nPer)); err != nil {
		return nil, fmt.Errorf("thermal: stacked model: %w", err)
	}
	return m, nil
}

// buildStacked assembles A, B and G for the 3D stack, emitting B as sparse
// triplets (see Model.build). Node layout:
// [layer 0 cores | layer 1 cores | ... | spreader (nPer) | sink].
func (m *Model) buildStacked(cfg StackedConfig, nPer int) *matrix.SparseBuilder {
	layers := cfg.Layers
	n := m.n
	N := m.N
	spreaderBase := n
	sink := N - 1

	m.aDiag = make([]float64, N)
	m.g = make([]float64, N)
	bb := matrix.NewSparseBuilder(N, N)

	for l := 0; l < layers; l++ {
		for i := 0; i < nPer; i++ {
			m.aDiag[l*nPer+i] = cfg.SiCapacitance
		}
	}
	for i := 0; i < nPer; i++ {
		m.aDiag[spreaderBase+i] = cfg.SpCapacitance
	}
	m.aDiag[sink] = cfg.SinkCapacitancePerCore * float64(nPer)

	addCoupling := func(i, j int, g float64) {
		if g == 0 {
			return
		}
		bb.Add(i, j, -g)
		bb.Add(j, i, -g)
		bb.Add(i, i, g)
		bb.Add(j, j, g)
	}

	for l := 0; l < layers; l++ {
		base := l * nPer
		for i := 0; i < nPer; i++ {
			// Lateral silicon couplings within the layer.
			for _, nb := range m.fp.Neighbors(i) {
				if nb > i {
					addCoupling(base+i, base+nb, cfg.GLateralSi)
				}
			}
			// Vertical: to the next layer up, or to the spreader from the
			// top layer.
			if l < layers-1 {
				addCoupling(base+i, base+nPer+i, cfg.GInterLayer)
			} else {
				addCoupling(base+i, spreaderBase+i, cfg.GVertical)
			}
		}
	}
	for i := 0; i < nPer; i++ {
		for _, nb := range m.fp.Neighbors(i) {
			if nb > i {
				addCoupling(spreaderBase+i, spreaderBase+nb, cfg.GLateralSp)
			}
		}
		exposed := 4 - len(m.fp.Neighbors(i))
		gSink := cfg.GSpreaderSink * (1 + cfg.GSpreaderEdgeBonus*float64(exposed))
		addCoupling(spreaderBase+i, sink, gSink)
	}

	gAmb := cfg.GSinkAmbientPerCore * float64(nPer)
	bb.Add(sink, sink, gAmb)
	m.g[sink] = gAmb
	return bb
}

// StackedCoreID returns the node/core ID of (layer, position).
func StackedCoreID(layer, position, perLayer int) int { return layer*perLayer + position }
