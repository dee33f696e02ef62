package fabric_test

// End-to-end fabric test: a dispatcher with two pull-loop workers (each a
// real service stack, so leased cells run through a ResultCache exactly as
// in production) executes a sweep whose first worker dies mid-flight. The
// surviving worker absorbs the re-queued cells and the client stream must
// carry the same (Index, Hash, Result) triples as a single-node
// hotpotato.ExecuteSweep of the identical spec — the acceptance criterion of
// the distributed fabric. The external test package breaks the
// service→fabric import cycle.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/service"
)

const e2eSweepJSON = `{
	"base": {"platform": {"width": 4, "height": 4}},
	"axes": {
		"schedulers": [{"name": "hotpotato"}, {"name": "reactive"}],
		"workloads": [
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.6}]},
			{"kind": "explicit", "tasks": [{"bench": "swaptions", "threads": 3, "work_scale": 0.6}]},
			{"kind": "explicit", "tasks": [{"bench": "bodytrack", "threads": 2, "work_scale": 0.6}]}
		]
	}
}`

func TestFabricEndToEndWorkerDeathParity(t *testing.T) {
	d := fabric.NewDispatcher(fabric.Config{
		LeaseTTL:   time.Second,
		LeaseCells: 1,         // one cell per lease spreads the sweep across workers
		Heartbeat:  time.Hour, // longer than the test: no progress records
	})
	reaperCtx, stopReaper := context.WithCancel(context.Background())
	defer stopReaper()
	go d.Run(reaperCtx)
	ds := httptest.NewServer(d.Handler())
	defer ds.Close()

	// Two workers, each with its own service stack. The doomed one gets a
	// hard-cancelable context — the in-process stand-in for kill -9 (the CI
	// smoke kills a real process).
	startWorker := func(ctx context.Context, id string) <-chan struct{} {
		svc := service.New(service.Config{Workers: 2})
		t.Cleanup(func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			svc.Shutdown(shCtx)
		})
		done := make(chan struct{})
		w := &fabric.Worker{
			Dispatcher: ds.URL,
			ID:         id,
			LeaseCells: 1,
			Exec:       svc.ExecuteCell,
			IdlePoll:   20 * time.Millisecond,
		}
		go func() {
			defer close(done)
			w.Run(ctx)
		}()
		return done
	}

	doomedCtx, killDoomed := context.WithCancel(context.Background())
	defer killDoomed()
	doomedDone := startWorker(doomedCtx, "doomed")
	survivorCtx, stopSurvivor := context.WithCancel(context.Background())
	defer stopSurvivor()
	startWorker(survivorCtx, "survivor")

	resp, err := http.Post(ds.URL+"/v1/batch", "application/json", strings.NewReader(e2eSweepJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	// Stream records; the moment the first result lands, kill the doomed
	// worker so whatever it holds mid-lease must be recovered.
	type rec struct {
		Type    string            `json:"type"`
		Index   int               `json:"index"`
		Hash    string            `json:"hash"`
		Status  string            `json:"status"`
		Error   string            `json:"error"`
		Result  *hotpotato.Result `json:"result"`
		SweepID string            `json:"sweep_id"`
		Total   int               `json:"total"`
	}
	var records []rec
	killed := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad record: %v\n%s", err, line)
		}
		records = append(records, r)
		if r.Type == "result" && !killed {
			killed = true
			killDoomed()
			<-doomedDone
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if records[0].Type != "sweep" || records[0].SweepID == "" {
		t.Fatalf("stream header %+v", records[0])
	}
	if last := records[len(records)-1]; last.Type != "summary" {
		t.Fatalf("last record %q, want summary", last.Type)
	}
	got := map[int]rec{}
	for _, r := range records {
		if r.Type != "result" {
			continue
		}
		if _, dup := got[r.Index]; dup {
			t.Fatalf("cell %d emitted twice", r.Index)
		}
		got[r.Index] = r
	}
	if len(got) != 6 {
		t.Fatalf("stream carried %d cells, want 6 (worker death must not lose cells)", len(got))
	}

	// Single-node reference of the identical sweep.
	var spec hotpotato.SweepSpec
	if err := json.Unmarshal([]byte(e2eSweepJSON), &spec); err != nil {
		t.Fatal(err)
	}
	want := map[int]hotpotato.SweepResultRecord{}
	err = hotpotato.ExecuteSweep(context.Background(), spec, hotpotato.SweepOptions{},
		func(r hotpotato.SweepCellResult) { want[r.Index] = hotpotato.NewSweepResultRecord(r) })
	if err != nil {
		t.Fatal(err)
	}

	for idx, w := range want {
		g, ok := got[idx]
		if !ok {
			t.Errorf("cell %d missing from the fabric stream", idx)
			continue
		}
		if g.Status != "ok" || w.Status != "ok" {
			t.Errorf("cell %d status fabric=%q single=%q (%s)", idx, g.Status, w.Status, g.Error)
			continue
		}
		if g.Hash != w.Hash {
			t.Errorf("cell %d hash fabric=%q single=%q", idx, g.Hash, w.Hash)
		}
		// Only the host wall-clock field may differ between hosts/runs.
		g.Result.SchedulerHostTime = 0
		w.Result.SchedulerHostTime = 0
		gj, _ := json.Marshal(g.Result)
		wj, _ := json.Marshal(w.Result)
		if string(gj) != string(wj) {
			t.Errorf("cell %d result diverges from single-node run:\nfabric: %s\nsingle: %s", idx, gj, wj)
		}
	}
}
