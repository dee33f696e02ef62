// Package noc models the grid Network-on-Chip of an S-NUCA many-core:
// XY (dimension-ordered) routing, per-hop latency, and the average LLC
// access latency a core observes, which grows with its Average Manhattan
// Distance (AMD) to the distributed cache banks. This AMD-driven latency is
// the source of the performance heterogeneity HotPotato exploits
// (paper §III-A, [19]).
package noc

import (
	"fmt"

	"repro/internal/floorplan"
)

// Config holds NoC timing parameters (paper Table I).
type Config struct {
	HopLatency     float64 `json:"hop_latency"`     // seconds per hop (Table I: 1.5 ns)
	LinkWidthBits  int     `json:"link_width_bits"` // link width (Table I: 256 bit)
	RouterOverhead float64 `json:"router_overhead"` // fixed per-message router/serialization overhead, seconds
}

// DefaultConfig returns the Table I NoC parameters.
func DefaultConfig() Config {
	return Config{
		HopLatency:     1.5e-9,
		LinkWidthBits:  256,
		RouterOverhead: 0,
	}
}

// Network is an XY-routed grid NoC over a floorplan.
type Network struct {
	fp  *floorplan.Floorplan
	cfg Config
}

// New builds a network over the given floorplan.
func New(fp *floorplan.Floorplan, cfg Config) (*Network, error) {
	if cfg.HopLatency <= 0 {
		return nil, fmt.Errorf("noc: hop latency must be positive, got %g", cfg.HopLatency)
	}
	if cfg.LinkWidthBits <= 0 {
		return nil, fmt.Errorf("noc: link width must be positive, got %d", cfg.LinkWidthBits)
	}
	return &Network{fp: fp, cfg: cfg}, nil
}

// Config returns the network parameters.
func (n *Network) Config() Config { return n.cfg }

// Route returns the XY route from core src to core dst as a sequence of core
// IDs including both endpoints: first along X to the destination column, then
// along Y.
func (n *Network) Route(src, dst int) []int {
	sx, sy := n.fp.Coord(src)
	dx, dy := n.fp.Coord(dst)
	path := []int{src}
	x, y := sx, sy
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		path = append(path, n.fp.ID(x, y))
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		path = append(path, n.fp.ID(x, y))
	}
	return path
}

// Hops returns the hop count between src and dst (equals the Manhattan
// distance for XY routing on a grid).
func (n *Network) Hops(src, dst int) int {
	return n.fp.ManhattanDistance(src, dst)
}

// Latency returns the one-way message latency from src to dst for a message
// of sizeBits bits: hop propagation plus serialization on the link width.
func (n *Network) Latency(src, dst, sizeBits int) float64 {
	hops := n.Hops(src, dst)
	flits := (sizeBits + n.cfg.LinkWidthBits - 1) / n.cfg.LinkWidthBits
	if flits < 1 {
		flits = 1
	}
	// Wormhole pipeline: head flit takes hops * hopLatency, body flits
	// stream one per hop time behind it.
	return float64(hops)*n.cfg.HopLatency + float64(flits-1)*n.cfg.HopLatency + n.cfg.RouterOverhead
}

// AvgLLCRoundTrip returns the average round-trip NoC time for an LLC access
// issued by core id under S-NUCA: cache lines are statically distributed over
// all banks, so the expected one-way distance is the core's AMD. A round trip
// (request + data reply) crosses the network twice; the reply carries a
// 64-byte cache line.
func (n *Network) AvgLLCRoundTrip(id int) float64 {
	amd := n.fp.AMD(id)
	const lineBits = 64 * 8
	flits := (lineBits + n.cfg.LinkWidthBits - 1) / n.cfg.LinkWidthBits
	oneWayRequest := amd * n.cfg.HopLatency
	oneWayReply := amd*n.cfg.HopLatency + float64(flits-1)*n.cfg.HopLatency
	return oneWayRequest + oneWayReply + 2*n.cfg.RouterOverhead
}
