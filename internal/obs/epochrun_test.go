package obs_test

// Differential tests of the column store for epoch spans: a recorder filled
// through a real simulation run must give the same Records, Tree and JSON
// Lines as an oracle that builds every epoch record the way RecordEpoch did
// when it kept one Span and one attribute map per epoch.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rotor moves every thread one core further each epoch, so decisions
// migrate and the "migrations" attr is not always zero.
type rotor struct {
	k   int
	dec sim.Decision
}

func (r *rotor) Name() string { return "rotor" }

func (r *rotor) Decide(st *sim.State) sim.Decision {
	if r.dec.Assignment == nil {
		r.dec.Assignment = map[sim.ThreadID]int{}
	}
	clear(r.dec.Assignment)
	n := st.Platform.NumCores()
	for i, th := range st.Threads {
		r.dec.Assignment[th.ID] = (i + r.k) % n
	}
	r.k++
	return r.dec
}

// oracle is an epoch sink installed ahead of the context's span, so it sees
// each event just before Span.RecordEpoch does. It appends the epoch's
// record as RecordEpoch used to build it, and at the epochs in marks it
// first starts and ends a non-epoch span under the given parent, which
// closes the recorder's open run.
type oracle struct {
	rec    *obs.SpanRecorder
	parent *obs.Span
	marks  map[int]*obs.Span
	want   []obs.SpanRecord
}

func (o *oracle) RecordEpoch(ev obs.EpochEvent) {
	if under, ok := o.marks[ev.Epoch]; ok {
		o.want = append(o.want, child(under, "mark", ev.Epoch))
	}
	dur := ev.StateNS + ev.WallNS + ev.ApplyNS + ev.StepNS
	o.want = append(o.want, obs.SpanRecord{
		ID:     obs.SpanID(o.rec.Total()) + 1,
		Parent: o.parent.ID(),
		Name:   "epoch",
		// A lower bound on the recorded start; checked, then replaced.
		StartUnixNS: time.Now().Add(-time.Duration(dur)).UnixNano(),
		DurationNS:  dur,
		Done:        true,
		Attrs: map[string]any{
			"epoch":      ev.Epoch,
			"sim_time_s": ev.Time,
			"decide_ns":  ev.WallNS,
			"migrations": ev.Migrations,
		},
	})
}

// child starts and ends one non-epoch span and returns its expected record
// (timings are taken from the recorder).
func child(under *obs.Span, name string, i int) obs.SpanRecord {
	s := under.StartChild(name)
	s.SetAttr("i", i)
	s.End()
	return obs.SpanRecord{ID: s.ID(), Parent: under.ID(), Name: name, Done: true,
		Attrs: map[string]any{"i": i}}
}

// simulate runs 100 epochs of a 2-thread task on a 4×4 chip under ctx.
func simulate(t *testing.T, ctx context.Context, tracers ...obs.Tracer) {
	t.Helper()
	plat, err := sim.NewPlatform(sim.DefaultPlatformConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	task, err := workload.NewTask(0, b, 2, 0, 1000) // cannot finish in MaxTime
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.MaxTime = 0.05
	s, err := sim.New(plat, cfg, &rotor{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEpochTracer(tracers...)
	if _, err := s.RunContext(ctx); !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

// fill records one cell's worth of spans: non-epoch spans before, between
// and after two simulated runs under different parents, and a stretch where
// epochs alternate between two parents. It returns the oracle's records in
// start order.
func fill(t *testing.T, rec *obs.SpanRecorder) []obs.SpanRecord {
	t.Helper()
	root := rec.Start("cell")
	want := []obs.SpanRecord{{ID: root.ID(), Name: "cell", Done: true}}
	want = append(want, child(root, "before", 0))
	for run := range 2 {
		exec := root.StartChild("execute")
		want = append(want, obs.SpanRecord{ID: exec.ID(), Parent: root.ID(), Name: "execute", Done: true})
		o := &oracle{rec: rec, parent: exec, marks: map[int]*obs.Span{17: root, 40: exec, 41: exec}}
		if run == 1 {
			o.marks = map[int]*obs.Span{0: exec, 99: root}
		}
		simulate(t, obs.ContextWithSpan(context.Background(), exec), o)
		exec.End()
		want = append(want, o.want...)
		want = append(want, child(root, "between", run))
	}
	a, b := root.StartChild("a"), root.StartChild("b")
	want = append(want,
		obs.SpanRecord{ID: a.ID(), Parent: root.ID(), Name: "a", Done: true},
		obs.SpanRecord{ID: b.ID(), Parent: root.ID(), Name: "b", Done: true})
	for i := range 6 {
		s := []*obs.Span{a, b}[i%2]
		o := &oracle{rec: rec, parent: s}
		ev := obs.EpochEvent{Epoch: i, Time: float64(i) * 1e-3, Migrations: i, StateNS: 1, WallNS: int64(10 + i), ApplyNS: 2, StepNS: 3}
		o.RecordEpoch(ev)
		s.RecordEpoch(ev)
		want = append(want, o.want...)
	}
	a.End()
	b.End()
	want = append(want, child(root, "after", 0))
	root.End()
	return want
}

// settle checks the recorded epoch starts against the oracle's lower bounds
// and copies every timing the oracle cannot know into want.
func settle(t *testing.T, got, want []obs.SpanRecord, until int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Name == "epoch" {
			if s := got[i].StartUnixNS; s < want[i].StartUnixNS || s > until {
				t.Errorf("epoch span %d starts at %d, outside [%d, %d]", want[i].ID, s, want[i].StartUnixNS, until)
			}
		} else {
			want[i].DurationNS = got[i].DurationNS
		}
		want[i].StartUnixNS = got[i].StartUnixNS
	}
}

// oracleTree assembles records the way Tree always has.
func oracleTree(records []obs.SpanRecord) []*obs.SpanNode {
	nodes := map[obs.SpanID]*obs.SpanNode{}
	for _, r := range records {
		nodes[r.ID] = &obs.SpanNode{SpanRecord: r}
	}
	var roots []*obs.SpanNode
	for _, r := range records {
		if p, ok := nodes[r.Parent]; ok {
			p.Children = append(p.Children, nodes[r.ID])
		} else {
			roots = append(roots, nodes[r.ID])
		}
	}
	return roots
}

func TestEpochRunsMatchPerSpanOracle(t *testing.T) {
	full := obs.NewSpanRecorder(1 << 12)
	want := fill(t, full)
	until := time.Now().UnixNano()
	got := full.Records()
	settle(t, got, want, until)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	}
	epochs := 0
	for _, r := range want {
		if r.Name == "epoch" {
			epochs++
		}
	}
	if epochs < 200 {
		t.Fatalf("only %d epoch spans recorded", epochs)
	}
	if tree := full.Tree(); !reflect.DeepEqual(tree, oracleTree(want)) {
		t.Error("Tree differs from the oracle's tree")
	}
	var gotJSONL, wantJSONL bytes.Buffer
	if err := full.WriteJSONL(&gotJSONL); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&wantJSONL)
	for _, r := range want {
		enc.Encode(r)
	}
	if !bytes.Equal(gotJSONL.Bytes(), wantJSONL.Bytes()) {
		t.Error("WriteJSONL differs from the oracle's lines")
	}
	if full.Total() != int64(len(want)) || full.Dropped() != 0 || full.Len() != len(want) {
		t.Errorf("Total %d Dropped %d Len %d, want %d, 0, %d", full.Total(), full.Dropped(), full.Len(), len(want), len(want))
	}

	// The same recording truncated at capacities that end inside a run,
	// just after a mark, and after the root alone: the retained spans are
	// the oracle's start-order prefix.
	firstRun := 4 // cell, before, execute, first epoch
	for _, capacity := range []int{firstRun + 9, firstRun + 18, 1, len(want) - 3} {
		rec := obs.NewSpanRecorder(capacity)
		want := fill(t, rec)
		until := time.Now().UnixNano()
		got := rec.Records()
		settle(t, got, want[:capacity], until)
		if !reflect.DeepEqual(got, want[:capacity]) {
			t.Errorf("capacity %d: records differ from the oracle's prefix", capacity)
		}
		if rec.Total() != int64(len(want)) || rec.Dropped() != int64(len(want)-capacity) || rec.Len() != capacity {
			t.Errorf("capacity %d: Total %d Dropped %d Len %d, want %d, %d, %d",
				capacity, rec.Total(), rec.Dropped(), rec.Len(), len(want), len(want)-capacity, capacity)
		}
	}
}

// TestEpochRunsExportRoundTrip: Export's records and runs, grafted by
// Graft into an empty recorder, expand to the source's Records with
// every ID shifted past the receiver's own spans and the roots under the
// graft parent.
func TestEpochRunsExportRoundTrip(t *testing.T) {
	src := obs.NewSpanRecorder(1 << 12)
	fill(t, src)
	records, runs := src.Export()
	if len(runs) < 8 {
		t.Fatalf("%d runs exported, want one per stretch between marks", len(runs))
	}
	data, err := json.Marshal(struct {
		Spans  []obs.SpanRecord
		Epochs []obs.EpochRun
	}{records, runs})
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Spans  []obs.SpanRecord
		Epochs []obs.EpochRun
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	dst := obs.NewSpanRecorder(0)
	top := dst.Start("lease")
	top.End()
	kept, rejected := dst.Graft(top.ID(), map[string]any{"worker": "w"}, wire.Spans, wire.Epochs)
	if want := src.Len(); kept != want || rejected != 0 {
		t.Fatalf("kept %d rejected %d, want %d, 0", kept, rejected, want)
	}
	got := dst.Records()[1:]
	for i, w := range src.Records() {
		g := got[i]
		w.ID++
		if w.Parent == 0 {
			w.Parent = top.ID()
			w.Attrs = map[string]any{"worker": "w"}
		} else {
			w.Parent++
		}
		wj, _ := json.Marshal(w)
		gj, _ := json.Marshal(g)
		if !bytes.Equal(wj, gj) {
			t.Fatalf("grafted record %d:\n got %s\nwant %s", i, gj, wj)
		}
	}
}

// TestEpochRunsConcurrentReader reads a recorder in every form while a run
// records into it (run with -race).
func TestEpochRunsConcurrentReader(t *testing.T) {
	rec := obs.NewSpanRecorder(1 << 12)
	root := rec.Start("run")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := len(rec.Records())
			rec.Tree()
			rec.Export()
			if n > rec.Len() {
				t.Errorf("snapshot of %d spans exceeds Len %d", n, rec.Len())
				return
			}
		}
	}()
	simulate(t, obs.ContextWithSpan(context.Background(), root))
	close(stop)
	wg.Wait()
	root.End()
	if got := rec.Len(); got < 100 {
		t.Errorf("Len %d, want the root and ~100 epochs", got)
	}
}

// TestGraftRejectsMalformedRuns: each malformed run is dropped and
// counted, without IDs; the well-formed rest of the batch grafts.
func TestGraftRejectsMalformedRuns(t *testing.T) {
	run := func(at int, first obs.SpanID, n int) obs.EpochRun {
		r := obs.EpochRun{At: at, Parent: 1, First: first}
		for i := range n {
			r.StartUnixNS = append(r.StartUnixNS, int64(i))
			r.DurationNS = append(r.DurationNS, 1)
			r.Epoch = append(r.Epoch, i)
			r.SimTimeS = append(r.SimTimeS, 0)
			r.DecideNS = append(r.DecideNS, 1)
			r.Migrations = append(r.Migrations, 0)
		}
		return r
	}
	records := []obs.SpanRecord{{ID: 1, Name: "root"}, {ID: 20, Parent: 1, Name: "tail"}}
	short := run(1, 2, 3)
	short.DecideNS = short.DecideNS[:2]
	for _, tc := range []struct {
		name            string
		runs            []obs.EpochRun
		keep, bad, lost int // epoch spans grafted, runs rejected, spans dropped
	}{
		{"well formed", []obs.EpochRun{run(1, 2, 3), run(1, 5, 2), run(2, 21, 4)}, 9, 0, 0},
		{"columns differ", []obs.EpochRun{short, run(1, 5, 2)}, 2, 1, 3},
		{"at beyond records", []obs.EpochRun{run(3, 2, 3)}, 0, 1, 3},
		{"at negative", []obs.EpochRun{run(-1, 2, 3)}, 0, 1, 3},
		{"at decreasing", []obs.EpochRun{run(2, 21, 2), run(1, 2, 3)}, 2, 1, 3},
		{"first zero", []obs.EpochRun{run(1, 0, 3)}, 0, 1, 3},
		{"first negative", []obs.EpochRun{run(1, -4, 3)}, 0, 1, 3},
		{"overlaps a record", []obs.EpochRun{run(1, 18, 3)}, 0, 1, 3},
		{"runs overlap", []obs.EpochRun{run(1, 2, 3), run(1, 4, 3)}, 0, 2, 6},
		{"ID overflow", []obs.EpochRun{run(1, 1<<63-2, 3)}, 0, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := obs.NewSpanRecorder(0)
			kept, rejected := dst.Graft(0, nil, records, tc.runs)
			want := len(records) + tc.keep
			if kept != want || rejected != tc.bad {
				t.Fatalf("kept %d, rejected %d runs; want %d, %d", kept, rejected, want, tc.bad)
			}
			if dst.Len() != want || dst.Total() != int64(want) || dst.Dropped() != int64(tc.lost) {
				t.Errorf("Len %d Total %d Dropped %d, want %d, %d, %d",
					dst.Len(), dst.Total(), dst.Dropped(), want, want, tc.lost)
			}
			if recs := dst.Records(); len(recs) != want {
				t.Errorf("Records holds %d, want %d", len(recs), want)
			}
		})
	}
}
