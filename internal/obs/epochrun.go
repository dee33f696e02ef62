package obs

import (
	"math"
	"sort"
)

// EpochRun is a run of finished "epoch" spans kept by column: spans with one
// parent and consecutive IDs First, First+1, …, one slice per field. A
// recorder appends every RecordEpoch to its open run instead of keeping a
// Span and an attribute map per epoch, and the run is the wire form of epoch
// spans on a fabric results post (CellSpans.Epochs) and in the dispatcher's
// merged trace.
//
// At places the run among the records it travels with: its spans come after
// records[At-1] and before records[At]. A run in a batch is malformed, and is
// not grafted, when its columns differ in length, its At is out of range or
// smaller than an earlier run's, its First is ≤ 0, or its IDs overlap a
// record's or another run's.
type EpochRun struct {
	At     int    `json:"at"`
	Parent SpanID `json:"parent,omitempty"`
	First  SpanID `json:"first"`
	// StartUnixNS and DurationNS are the spans' timings; the other columns
	// are their attrs "epoch", "sim_time_s", "decide_ns" and "migrations".
	StartUnixNS []int64   `json:"start_unix_ns"`
	DurationNS  []int64   `json:"duration_ns"`
	Epoch       []int     `json:"epoch"`
	SimTimeS    []float64 `json:"sim_time_s"`
	DecideNS    []int64   `json:"decide_ns"`
	Migrations  []int     `json:"migrations"`
}

// Len returns how many spans the run holds.
func (e *EpochRun) Len() int { return len(e.StartUnixNS) }

// maxLen is the longest column: the span count a malformed run is charged.
func (e *EpochRun) maxLen() int {
	return max(len(e.StartUnixNS), len(e.DurationNS), len(e.Epoch),
		len(e.SimTimeS), len(e.DecideNS), len(e.Migrations))
}

// square reports whether every column holds Len values.
func (e *EpochRun) square() bool {
	n := len(e.StartUnixNS)
	return len(e.DurationNS) == n && len(e.Epoch) == n && len(e.SimTimeS) == n &&
		len(e.DecideNS) == n && len(e.Migrations) == n
}

func (e *EpochRun) append(start, dur int64, epoch int, simTime float64, decideNS int64, migrations int) {
	e.StartUnixNS = append(e.StartUnixNS, start)
	e.DurationNS = append(e.DurationNS, dur)
	e.Epoch = append(e.Epoch, epoch)
	e.SimTimeS = append(e.SimTimeS, simTime)
	e.DecideNS = append(e.DecideNS, decideNS)
	e.Migrations = append(e.Migrations, migrations)
}

// record expands span k into the record RecordEpoch used to keep: the same
// attrs with the same Go types.
func (e *EpochRun) record(k int) SpanRecord {
	return SpanRecord{
		ID:          e.First + SpanID(k),
		Parent:      e.Parent,
		Name:        "epoch",
		StartUnixNS: e.StartUnixNS[k],
		DurationNS:  e.DurationNS[k],
		Done:        true,
		Attrs: map[string]any{
			"epoch":      e.Epoch[k],
			"sim_time_s": e.SimTimeS[k],
			"decide_ns":  e.DecideNS[k],
			"migrations": e.Migrations[k],
		},
	}
}

// clone returns the run's first n spans in columns of their own, placed at
// at with the given parent and first ID.
func (e *EpochRun) clone(at int, parent, first SpanID, n int) EpochRun {
	return EpochRun{
		At: at, Parent: parent, First: first,
		StartUnixNS: append([]int64(nil), e.StartUnixNS[:n]...),
		DurationNS:  append([]int64(nil), e.DurationNS[:n]...),
		Epoch:       append([]int(nil), e.Epoch[:n]...),
		SimTimeS:    append([]float64(nil), e.SimTimeS[:n]...),
		DecideNS:    append([]int64(nil), e.DecideNS[:n]...),
		Migrations:  append([]int(nil), e.Migrations[:n]...),
	}
}

func totalLen(runs []EpochRun) int {
	n := 0
	for i := range runs {
		n += runs[i].Len()
	}
	return n
}

// eachInOrder walks nrec records and the runs in batch order, calling rec
// for each record and run for each run. The runs' At must be non-decreasing
// and at most nrec.
func eachInOrder(nrec int, runs []EpochRun, rec func(i int), run func(j int)) {
	i := 0
	for j := range runs {
		for ; i < runs[j].At; i++ {
			rec(i)
		}
		run(j)
	}
	for ; i < nrec; i++ {
		rec(i)
	}
}

// findRun returns the index of the run holding id, or -1. The runs' ID
// ranges must not overlap.
func findRun(runs []EpochRun, id SpanID) int {
	for j := range runs {
		if id >= runs[j].First && id-runs[j].First < SpanID(runs[j].Len()) {
			return j
		}
	}
	return -1
}

// validRuns splits a batch's runs into the well-formed ones, in batch order,
// and the malformed ones.
func validRuns(records []SpanRecord, runs []EpochRun) (good, bad []EpochRun) {
	if len(runs) == 0 {
		return nil, nil
	}
	reject := make([]bool, len(runs))
	at := 0
	for j := range runs {
		e := &runs[j]
		n := e.Len()
		if !e.square() || e.At < at || e.At > len(records) ||
			e.First <= 0 || e.First > math.MaxInt64-SpanID(n) {
			reject[j] = true
			continue
		}
		at = e.At
	}

	// IDs: a run overlapping a record is rejected, and so are both runs of
	// an overlapping pair.
	ids := make([]SpanID, len(records))
	for i := range records {
		ids[i] = records[i].ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var order []int
	for j := range runs {
		if reject[j] {
			continue
		}
		end := runs[j].First + SpanID(runs[j].Len())
		if k := sort.Search(len(ids), func(k int) bool { return ids[k] >= runs[j].First }); k < len(ids) && ids[k] < end {
			reject[j] = true
			continue
		}
		order = append(order, j)
	}
	sort.Slice(order, func(a, b int) bool { return runs[order[a]].First < runs[order[b]].First })
	last := -1 // the run reaching furthest so far
	for _, j := range order {
		if runs[j].Len() == 0 {
			continue
		}
		if last >= 0 && runs[j].First < runs[last].First+SpanID(runs[last].Len()) {
			reject[j], reject[last] = true, true
			if runs[j].First+SpanID(runs[j].Len()) <= runs[last].First+SpanID(runs[last].Len()) {
				continue
			}
		}
		last = j
	}
	for j := range runs {
		if reject[j] {
			bad = append(bad, runs[j])
		} else {
			good = append(good, runs[j])
		}
	}
	return good, bad
}
