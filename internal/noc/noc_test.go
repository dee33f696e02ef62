package noc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
)

func testNet(t testing.TB, w, h int) *Network {
	t.Helper()
	n, err := New(floorplan.MustNew(w, h, 0.0009), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	fp := floorplan.MustNew(2, 2, 0.0009)
	if _, err := New(fp, Config{HopLatency: 0, LinkWidthBits: 256}); err == nil {
		t.Error("expected error for zero hop latency")
	}
	if _, err := New(fp, Config{HopLatency: 1e-9, LinkWidthBits: 0}); err == nil {
		t.Error("expected error for zero link width")
	}
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HopLatency != 1.5e-9 {
		t.Errorf("hop latency = %v, want 1.5 ns", cfg.HopLatency)
	}
	if cfg.LinkWidthBits != 256 {
		t.Errorf("link width = %v, want 256", cfg.LinkWidthBits)
	}
}

func TestRouteEndpoints(t *testing.T) {
	n := testNet(t, 4, 4)
	path := n.Route(0, 15)
	if path[0] != 0 || path[len(path)-1] != 15 {
		t.Fatalf("route endpoints wrong: %v", path)
	}
	if len(path) != n.Hops(0, 15)+1 {
		t.Fatalf("route length %d, want hops+1 = %d", len(path), n.Hops(0, 15)+1)
	}
}

func TestRouteIsXYOrdered(t *testing.T) {
	// XY routing travels along X first, then Y.
	n := testNet(t, 4, 4)
	fp := floorplan.MustNew(4, 4, 0.0009)
	path := n.Route(fp.ID(0, 0), fp.ID(2, 3))
	sawYMove := false
	for i := 1; i < len(path); i++ {
		px, py := fp.Coord(path[i-1])
		cx, cy := fp.Coord(path[i])
		if py != cy { // Y move
			sawYMove = true
			if px != cx {
				t.Fatal("diagonal move in route")
			}
		} else if sawYMove && px != cx {
			t.Fatalf("X move after Y move: XY order violated in %v", path)
		}
	}
}

func TestRouteSelf(t *testing.T) {
	n := testNet(t, 3, 3)
	path := n.Route(4, 4)
	if len(path) != 1 || path[0] != 4 {
		t.Fatalf("self route = %v", path)
	}
}

func TestHopsEqualsManhattan(t *testing.T) {
	n := testNet(t, 5, 5)
	fp := floorplan.MustNew(5, 5, 0.0009)
	for a := 0; a < fp.NumCores(); a += 3 {
		for b := 0; b < fp.NumCores(); b += 4 {
			if n.Hops(a, b) != fp.ManhattanDistance(a, b) {
				t.Fatalf("hops(%d,%d) != manhattan", a, b)
			}
		}
	}
}

func TestLatencySingleFlit(t *testing.T) {
	n := testNet(t, 4, 4)
	// 256-bit message = 1 flit; 3 hops at 1.5 ns.
	got := n.Latency(0, 3, 256)
	want := 3 * 1.5e-9
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("latency = %v, want %v", got, want)
	}
}

func TestLatencyMultiFlit(t *testing.T) {
	n := testNet(t, 4, 4)
	// 512-bit message = 2 flits: one extra hop time of serialization.
	got := n.Latency(0, 3, 512)
	want := 3*1.5e-9 + 1*1.5e-9
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("latency = %v, want %v", got, want)
	}
}

func TestLatencyZeroBitsStillOneFlit(t *testing.T) {
	n := testNet(t, 4, 4)
	if got, want := n.Latency(0, 1, 0), 1.5e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("zero-size latency = %v, want one hop %v", got, want)
	}
}

func TestAvgLLCRoundTripCenterFasterThanCorner(t *testing.T) {
	// The S-NUCA performance heterogeneity: central cores see lower average
	// LLC latency than corner cores.
	n := testNet(t, 8, 8)
	fp := floorplan.MustNew(8, 8, 0.0009)
	center := fp.ID(3, 3)
	corner := fp.ID(0, 0)
	if n.AvgLLCRoundTrip(center) >= n.AvgLLCRoundTrip(corner) {
		t.Errorf("center RT %v not < corner RT %v",
			n.AvgLLCRoundTrip(center), n.AvgLLCRoundTrip(corner))
	}
}

// Property: latency is monotone in distance and in message size.
func TestPropLatencyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 2 + r.Intn(7)
		fp := floorplan.MustNew(w, w, 0.0009)
		n, err := New(fp, DefaultConfig())
		if err != nil {
			return false
		}
		a := r.Intn(fp.NumCores())
		b := r.Intn(fp.NumCores())
		c := r.Intn(fp.NumCores())
		// Pick the farther of b, c from a; its latency must be >= the nearer.
		far, near := b, c
		if n.Hops(a, far) < n.Hops(a, near) {
			far, near = near, far
		}
		if n.Latency(a, far, 256) < n.Latency(a, near, 256) {
			return false
		}
		return n.Latency(a, b, 1024) >= n.Latency(a, b, 256)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every route is a valid path of unit steps with the right length.
func TestPropRouteValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 2 + r.Intn(7)
		h := 2 + r.Intn(7)
		fp := floorplan.MustNew(w, h, 0.0009)
		n, err := New(fp, DefaultConfig())
		if err != nil {
			return false
		}
		src := r.Intn(fp.NumCores())
		dst := r.Intn(fp.NumCores())
		path := n.Route(src, dst)
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		for i := 1; i < len(path); i++ {
			if fp.ManhattanDistance(path[i-1], path[i]) != 1 {
				return false
			}
		}
		return len(path) == fp.ManhattanDistance(src, dst)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
