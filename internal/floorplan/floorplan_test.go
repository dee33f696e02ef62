package floorplan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 0.0009); err == nil {
		t.Error("expected error for zero width")
	}
	if _, err := New(4, -1, 0.0009); err == nil {
		t.Error("expected error for negative height")
	}
	if _, err := New(4, 4, 0); err == nil {
		t.Error("expected error for zero core edge")
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	f := MustNew(8, 8, 0.0009)
	for id := 0; id < f.NumCores(); id++ {
		x, y := f.Coord(id)
		if got := f.ID(x, y); got != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestManhattanDistance(t *testing.T) {
	f := MustNew(4, 4, 0.0009)
	// Core 0 is (0,0); core 15 is (3,3).
	if got := f.ManhattanDistance(0, 15); got != 6 {
		t.Errorf("distance 0..15 = %d, want 6", got)
	}
	if got := f.ManhattanDistance(5, 5); got != 0 {
		t.Errorf("self distance = %d, want 0", got)
	}
	if f.ManhattanDistance(3, 7) != f.ManhattanDistance(7, 3) {
		t.Error("distance not symmetric")
	}
}

func TestNeighborsCornerEdgeCenter(t *testing.T) {
	f := MustNew(4, 4, 0.0009)
	if got := len(f.Neighbors(0)); got != 2 {
		t.Errorf("corner neighbours = %d, want 2", got)
	}
	if got := len(f.Neighbors(1)); got != 3 {
		t.Errorf("edge neighbours = %d, want 3", got)
	}
	if got := len(f.Neighbors(5)); got != 4 {
		t.Errorf("center neighbours = %d, want 4", got)
	}
}

func TestNeighborsAreAdjacentAndMutual(t *testing.T) {
	f := MustNew(5, 3, 0.0009)
	for id := 0; id < f.NumCores(); id++ {
		for _, nb := range f.Neighbors(id) {
			if f.ManhattanDistance(id, nb) != 1 {
				t.Fatalf("neighbour %d of %d at distance %d", nb, id, f.ManhattanDistance(id, nb))
			}
			mutual := false
			for _, back := range f.Neighbors(nb) {
				if back == id {
					mutual = true
				}
			}
			if !mutual {
				t.Fatalf("neighbour relation %d->%d not mutual", id, nb)
			}
		}
	}
}

func TestAMDCenterLowest(t *testing.T) {
	// Paper §III-A: AMD increases as we traverse away from the centre.
	f := MustNew(4, 4, 0.0009)
	centerIDs := []int{5, 6, 9, 10}
	cornerIDs := []int{0, 3, 12, 15}
	for _, c := range centerIDs {
		for _, k := range cornerIDs {
			if f.AMD(c) >= f.AMD(k) {
				t.Errorf("AMD(center %d)=%v not < AMD(corner %d)=%v", c, f.AMD(c), k, f.AMD(k))
			}
		}
	}
}

func TestAMDKnownValue16Core(t *testing.T) {
	// For a 4x4 grid, core (0,0): sum over all cores of |dx|+|dy| =
	// 4*(0+1+2+3) [x part] + 4*(0+1+2+3) [y part] = 48; AMD = 48/16 = 3.
	f := MustNew(4, 4, 0.0009)
	if got := f.AMD(0); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("AMD(corner) = %v, want 3.0", got)
	}
	// Core (1,1): x distances 4*(1+0+1+2)=16, y same = 16, total 32 → AMD 2.
	if got := f.AMD(f.ID(1, 1)); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("AMD(1,1) = %v, want 2.0", got)
	}
}

func TestRingsPartitionChip(t *testing.T) {
	f := MustNew(8, 8, 0.0009)
	seen := map[int]bool{}
	for _, ring := range f.Rings() {
		for _, c := range ring.Cores {
			if seen[c] {
				t.Fatalf("core %d in two rings", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != f.NumCores() {
		t.Fatalf("rings cover %d cores, want %d", len(seen), f.NumCores())
	}
}

func TestRingsAscendingAMD(t *testing.T) {
	f := MustNew(8, 8, 0.0009)
	rings := f.Rings()
	for i := 1; i < len(rings); i++ {
		if rings[i].AMD <= rings[i-1].AMD {
			t.Fatalf("ring %d AMD %v not > ring %d AMD %v", i, rings[i].AMD, i-1, rings[i-1].AMD)
		}
	}
}

func TestRingsHomogeneousAMD(t *testing.T) {
	f := MustNew(6, 6, 0.0009)
	for ri, ring := range f.Rings() {
		for _, c := range ring.Cores {
			if math.Abs(f.AMD(c)-ring.AMD) > 1e-9 {
				t.Fatalf("ring %d: core %d has AMD %v, ring AMD %v", ri, c, f.AMD(c), ring.AMD)
			}
		}
	}
}

func TestInnermostRingIsCenter16Core(t *testing.T) {
	// Paper Fig. 1/3: the innermost ring of a 16-core chip is cores 5,6,9,10.
	f := MustNew(4, 4, 0.0009)
	inner := f.Rings()[0]
	want := map[int]bool{5: true, 6: true, 9: true, 10: true}
	if len(inner.Cores) != 4 {
		t.Fatalf("inner ring size = %d, want 4 (%v)", len(inner.Cores), inner.Cores)
	}
	for _, c := range inner.Cores {
		if !want[c] {
			t.Fatalf("inner ring contains %d, want {5,6,9,10}", c)
		}
	}
}

func TestRingOf(t *testing.T) {
	f := MustNew(4, 4, 0.0009)
	if got := f.RingOf(5); got != 0 {
		t.Errorf("RingOf(5) = %d, want 0 (innermost)", got)
	}
	if got := f.RingOf(0); got != len(f.Rings())-1 {
		t.Errorf("RingOf(corner) = %d, want outermost %d", got, len(f.Rings())-1)
	}
}

func TestRotationOrderIsCycleOfAdjacentRingMembers(t *testing.T) {
	// The rotation walk must visit every ring member exactly once.
	f := MustNew(8, 8, 0.0009)
	for ri, ring := range f.Rings() {
		seen := map[int]bool{}
		for _, c := range ring.Cores {
			if seen[c] {
				t.Fatalf("ring %d repeats core %d", ri, c)
			}
			seen[c] = true
		}
	}
}

func TestCoreAreaTableI(t *testing.T) {
	// Table I: 0.81 mm² per core → edge 0.9 mm.
	f := MustNew(8, 8, 0.0009)
	if got := f.CoreArea(); math.Abs(got-0.81e-6) > 1e-12 {
		t.Errorf("core area = %v m², want 0.81e-6", got)
	}
}

// Property: AMD values are invariant under the chip's symmetries
// (here: 180° rotation maps core (x,y) to (W-1-x, H-1-y) with equal AMD).
func TestPropAMDSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 2 + r.Intn(7)
		h := 2 + r.Intn(7)
		fp := MustNew(w, h, 0.0009)
		for id := 0; id < fp.NumCores(); id++ {
			x, y := fp.Coord(id)
			mirror := fp.ID(w-1-x, h-1-y)
			if math.Abs(fp.AMD(id)-fp.AMD(mirror)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Manhattan distance satisfies the triangle inequality.
func TestPropManhattanTriangle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fp := MustNew(2+r.Intn(8), 2+r.Intn(8), 0.0009)
		n := fp.NumCores()
		a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
		return fp.ManhattanDistance(a, c) <= fp.ManhattanDistance(a, b)+fp.ManhattanDistance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: ring count and sizes cover the chip for arbitrary square grids.
func TestPropRingsPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 2 + r.Intn(8)
		fp := MustNew(w, w, 0.0009)
		total := 0
		for _, ring := range fp.Rings() {
			total += len(ring.Cores)
		}
		return total == fp.NumCores()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCoordPanicsOutOfRange(t *testing.T) {
	f := MustNew(2, 2, 0.0009)
	defer func() {
		if recover() == nil {
			t.Error("Coord(-1) did not panic")
		}
	}()
	f.Coord(-1)
}

func TestIDPanicsOutOfRange(t *testing.T) {
	f := MustNew(2, 2, 0.0009)
	defer func() {
		if recover() == nil {
			t.Error("ID(2,0) did not panic")
		}
	}()
	f.ID(2, 0)
}
