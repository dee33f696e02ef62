// Package floorplan models the physical layout of an S-NUCA many-core: a
// W×H grid of micro-architecturally homogeneous cores, each holding a bank of
// the physically distributed logically shared LLC. It computes each core's
// Average Manhattan Distance (AMD) to all other cores and partitions the chip
// into concentric AMD rings, the structure HotPotato rotates threads within
// (paper §III-A and Fig. 3).
package floorplan

import (
	"fmt"
	"math"
	"sort"
)

// Floorplan describes the geometry of a grid many-core.
type Floorplan struct {
	Width, Height int     // grid dimensions, cores
	CoreEdge      float64 // edge length of one (square) core, meters

	amd   []float64 // per-core average Manhattan distance, hops
	rings []Ring    // concentric AMD rings, ascending AMD
}

// Ring is a set of cores that share (nearly) the same AMD. Cores within a
// ring are performance- and thermal-wise homogeneous (paper §V), so HotPotato
// rotates threads within a ring.
type Ring struct {
	AMD   float64 // the shared AMD value, hops
	Cores []int   // core IDs ordered for rotation (ring-walk order)
}

// New builds a width×height floorplan. coreEdge is the physical edge of one
// core in meters (paper Table I: 0.81 mm² → 0.9 mm edge).
func New(width, height int, coreEdge float64) (*Floorplan, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("floorplan: invalid grid %dx%d", width, height)
	}
	if coreEdge <= 0 {
		return nil, fmt.Errorf("floorplan: invalid core edge %g", coreEdge)
	}
	f := &Floorplan{Width: width, Height: height, CoreEdge: coreEdge}
	f.computeAMD()
	f.computeRings()
	return f, nil
}

// MustNew is New but panics on error; for tests and literal configurations.
func MustNew(width, height int, coreEdge float64) *Floorplan {
	f, err := New(width, height, coreEdge)
	if err != nil {
		panic(err)
	}
	return f
}

// NumCores returns the number of cores on the chip.
func (f *Floorplan) NumCores() int { return f.Width * f.Height }

// Coord returns the (x, y) grid position of core id.
func (f *Floorplan) Coord(id int) (x, y int) {
	f.checkID(id)
	return id % f.Width, id / f.Width
}

// ID returns the core ID at grid position (x, y).
func (f *Floorplan) ID(x, y int) int {
	if x < 0 || x >= f.Width || y < 0 || y >= f.Height {
		panic(fmt.Sprintf("floorplan: coordinate (%d,%d) outside %dx%d grid", x, y, f.Width, f.Height))
	}
	return y*f.Width + x
}

func (f *Floorplan) checkID(id int) {
	if id < 0 || id >= f.NumCores() {
		panic(fmt.Sprintf("floorplan: core %d outside 0..%d", id, f.NumCores()-1))
	}
}

// ManhattanDistance returns the hop count between cores a and b under
// XY routing.
func (f *Floorplan) ManhattanDistance(a, b int) int {
	ax, ay := f.Coord(a)
	bx, by := f.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// Neighbors returns the IDs of the grid neighbours of core id (2–4 cores).
func (f *Floorplan) Neighbors(id int) []int {
	x, y := f.Coord(id)
	out := make([]int, 0, 4)
	if x > 0 {
		out = append(out, f.ID(x-1, y))
	}
	if x < f.Width-1 {
		out = append(out, f.ID(x+1, y))
	}
	if y > 0 {
		out = append(out, f.ID(x, y-1))
	}
	if y < f.Height-1 {
		out = append(out, f.ID(x, y+1))
	}
	return out
}

// AMD returns the Average Manhattan Distance of core id to all cores
// (including the zero distance to itself, matching the S-NUCA average LLC
// bank distance: a core's own bank is one of the n banks).
func (f *Floorplan) AMD(id int) float64 {
	f.checkID(id)
	return f.amd[id]
}

// Rings returns the concentric AMD rings in ascending AMD order. The slice
// and its contents must not be modified.
func (f *Floorplan) Rings() []Ring { return f.rings }

// RingOf returns the index (into Rings) of the ring containing core id.
func (f *Floorplan) RingOf(id int) int {
	f.checkID(id)
	for r, ring := range f.rings {
		for _, c := range ring.Cores {
			if c == id {
				return r
			}
		}
	}
	panic(fmt.Sprintf("floorplan: core %d not in any ring", id))
}

func (f *Floorplan) computeAMD() {
	n := f.NumCores()
	f.amd = make([]float64, n)
	for i := 0; i < n; i++ {
		total := 0
		for j := 0; j < n; j++ {
			total += f.ManhattanDistance(i, j)
		}
		f.amd[i] = float64(total) / float64(n)
	}
}

// amdQuantum groups AMD values that differ by less than this into one ring;
// floating-point AMD averages of symmetric positions are exactly equal, so
// the quantum only absorbs rounding.
const amdQuantum = 1e-9

func (f *Floorplan) computeRings() {
	n := f.NumCores()
	// Group cores by (quantised) AMD.
	byAMD := map[int64][]int{}
	for i := 0; i < n; i++ {
		key := int64(math.Round(f.amd[i] / amdQuantum))
		byAMD[key] = append(byAMD[key], i)
	}
	keys := make([]int64, 0, len(byAMD))
	for k := range byAMD {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

	f.rings = make([]Ring, 0, len(keys))
	for _, k := range keys {
		cores := byAMD[k]
		f.orderForRotation(cores)
		f.rings = append(f.rings, Ring{AMD: f.amd[cores[0]], Cores: cores})
	}
}

// orderForRotation sorts the cores of one ring into a walk order such that a
// synchronous rotation steps each thread to the next core of its own ring.
// Cores of an AMD ring lie on a rectangle-like contour around the chip
// centre; ordering by angle around the centre yields the natural cycle.
func (f *Floorplan) orderForRotation(cores []int) {
	cx := float64(f.Width-1) / 2
	cy := float64(f.Height-1) / 2
	sort.Slice(cores, func(a, b int) bool {
		ax, ay := f.Coord(cores[a])
		bx, by := f.Coord(cores[b])
		angA := math.Atan2(float64(ay)-cy, float64(ax)-cx)
		angB := math.Atan2(float64(by)-cy, float64(bx)-cx)
		if angA != angB {
			return angA < angB
		}
		return cores[a] < cores[b]
	})
}

// CoreArea returns the area of one core in m².
func (f *Floorplan) CoreArea() float64 { return f.CoreEdge * f.CoreEdge }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
