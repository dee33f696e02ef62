package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/service"
)

// fleet_sweep runs an in-process dispatcher (default lease settings) with two
// pull-loop workers, one slot each, executing through service.ExecuteCell —
// the only workload that crosses internal/fabric. Sweeps of 64 few-ms 4×4
// cells are posted to /v1/batch one after another; the seed picks which
// catalogue workloads each sweep crosses with the four schedulers. A workload
// comes round again only after the whole catalogue, far beyond the workers'
// result caches, so every cell is a fresh simulation (the run checks).

const (
	// × len(smallSchedulers) = 64 cells. Short sweeps fill the dispatcher's
	// ring of recent sweeps early in a run, so peak memory does not grow
	// with how many sweeps a run happens to finish.
	fleetWorkloadsPerSweep = 16
	// fleetIdlePoll replaces the worker's one-second default poll of an
	// empty queue: back-to-back sweeps would otherwise measure the poll
	// interval rather than the fabric.
	fleetIdlePoll = 10 * time.Millisecond
)

// execLog collects the host time of every cell a worker executed.
type execLog struct {
	mu sync.Mutex
	ns []int64
}

func (l *execLog) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, d.Nanoseconds())
	l.mu.Unlock()
}

func (l *execLog) take() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.ns
	l.ns = nil
	return out
}

type fleetStack struct {
	url    string
	hs     *http.Server
	svcs   []*service.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
	execs  execLog
	// spans is switched on and off between sweeps while workers read it;
	// sweepSpan is the span of the sweep in flight, the parent of its cells.
	spans     atomic.Pointer[spanLog]
	sweepSpan atomic.Int64
}

// startFleet brings up the dispatcher and two registered workers, each with
// its own service stack whose platform cache already holds the 4×4 chip.
func startFleet() (*fleetStack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleetStack{cancel: cancel}
	d := fabric.NewDispatcher(fabric.Config{})
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		d.Run(ctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: d.Handler()}
	go func() { _ = f.hs.Serve(ln) }() // returns ErrServerClosed once stopped
	plat4 := hotpotato.RunSpec{Platform: hotpotato.DefaultPlatformConfig(4, 4)}.WithDefaults().Platform
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{Workers: 1})
		f.svcs = append(f.svcs, svc)
		if _, err := svc.Cache().Get(plat4); err != nil {
			f.stop()
			return nil, err
		}
		w := &fabric.Worker{
			Dispatcher: f.url,
			ID:         "worker-" + strconv.Itoa(i),
			Exec:       f.timed(svc.ExecuteCell),
			IdlePoll:   fleetIdlePoll,
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx) // returns the context's error once stopped
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); d.Snapshot().Workers < 2; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet workers did not register")
		}
	}
	return f, nil
}

// timed wraps a worker's Exec to time every cell from outside the fabric.
func (f *fleetStack) timed(exec fabric.RunCell) fabric.RunCell {
	return func(ctx context.Context, cell hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
		spans := f.spans.Load()
		id := spans.start("cell_exec", "cell-"+strconv.Itoa(cell.Index), int(f.sweepSpan.Load()))
		t := time.Now()
		res, cached, err := exec(ctx, cell)
		f.execs.add(time.Since(t))
		spans.end(id)
		return res, cached, err
	}
}

func (f *fleetStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.hs.Shutdown(ctx) // best effort at exit: no sweep is in flight
	f.cancel()
	f.wg.Wait()
	for _, svc := range f.svcs {
		_ = svc.Shutdown(ctx)
	}
}

// fleetSweep is one generated sweep: its document and, per expected spec
// hash, the catalogue entry whose golden digest its result must match.
type fleetSweep struct {
	doc   []byte
	cells map[string]int
}

func fleetSweeps(e *env) (func() fleetSweep, error) {
	hashes := make([]string, len(e.cat.small))
	for i, doc := range e.cat.small {
		spec, err := decodeSpec(doc)
		if err != nil {
			return nil, err
		}
		if hashes[i], err = hotpotato.SpecHash(spec); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	order := rng.Perm(len(e.cat.smallWorkloads))
	scheds := make([]map[string]string, len(smallSchedulers))
	for i, s := range smallSchedulers {
		scheds[i] = map[string]string{"name": s}
	}
	n := 0
	return func() fleetSweep {
		sw := fleetSweep{cells: map[string]int{}}
		var ws []hotpotato.WorkloadSpec
		for i := 0; i < fleetWorkloadsPerSweep; i++ {
			k := order[n%len(order)]
			n++
			ws = append(ws, e.cat.smallWorkloads[k])
			for s := range smallSchedulers {
				idx := k*len(smallSchedulers) + s
				sw.cells[hashes[idx]] = idx
			}
		}
		sw.doc = mustJSON(map[string]any{
			"base": map[string]any{"platform": wirePlatform{Width: 4, Height: 4}},
			"axes": map[string]any{"workloads": ws, "schedulers": scheds},
		})
		return sw
	}, nil
}

// postSweep runs one sweep through the dispatcher and checks every streamed
// cell; it returns the sweep's wall time.
func (e *env) postSweep(f *fleetStack, client *http.Client, sw fleetSweep) (time.Duration, error) {
	spans := f.spans.Load()
	id := spans.start("sweep", "sweep", 0)
	f.sweepSpan.Store(int64(id))
	defer spans.end(id)
	t := time.Now()
	resp, err := client.Post(f.url+"/v1/batch", "application/json", bytes.NewReader(sw.doc))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/v1/batch status %d", resp.StatusCode)
	}
	seen := map[int]bool{}
	summary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			return 0, fmt.Errorf("undecodable stream record: %w", err)
		}
		switch head.Type {
		case "summary":
			summary = true
		case "result":
			var rec hotpotato.SweepResultRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return 0, fmt.Errorf("undecodable result record: %w", err)
			}
			idx, known := sw.cells[rec.Hash]
			bad := !known || seen[rec.Index] || rec.Status != "ok" || rec.Result == nil ||
				resultDigest(rec.Hash, rec.Result) != e.gold.Small[idx]
			seen[rec.Index] = true
			if rec.Cached {
				e.cachedCells++
			} else if rec.Result != nil {
				e.decided(rec.Result.SchedulerHostTime.Nanoseconds(), rec.Result.SchedulerInvocations)
			}
			e.op(bad)
			if bad {
				e.note("failed: cell %d status %q %s", rec.Index, rec.Status, rec.Error)
			}
		}
	}
	wall := time.Since(t)
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if missing := len(sw.cells) - len(seen); missing > 0 || !summary {
		for i := 0; i < missing; i++ {
			e.op(true)
		}
		e.note("failed: sweep ended with %d of %d cells (summary %v)", len(seen), len(sw.cells), summary)
	}
	return wall, nil
}

func runFleetSweep(e *env) error {
	next, err := fleetSweeps(e)
	if err != nil {
		return err
	}
	var f *fleetStack
	start := func() (err error) {
		f, err = startFleet()
		return err
	}
	stop := func() {
		if f != nil {
			f.stop()
			f = nil
		}
	}
	defer stop()
	setups, err := timeSetups(setupRepeats-setupRepeats/2, start, stop)
	if err != nil {
		return err
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// The operation is one sweep. A traced run alternates untraced and traced
	// sweeps; the difference of their median throughputs is the tracing
	// overhead.
	var w *layerWindow
	if e.traced {
		w = openWindow()
	}
	e.opCPU.begin()
	var rates, tracedRates, walls []float64
	var leases, requeues float64
	var execNS int64
	cells := 0
	for deadline := time.Now().Add(e.seconds); len(rates) == 0 || time.Now().Before(deadline); {
		tracing := e.traced && len(rates) > len(tracedRates)
		if tracing {
			f.spans.Store(e.spans)
		} else {
			f.spans.Store(nil)
		}
		sw := next()
		c0 := counters()
		f.execs.take()
		wall, err := e.postSweep(f, client, sw)
		if err != nil {
			return err
		}
		c1 := counters()
		requeued := delta(c1, c0, "fabric_cells_requeued_total")
		for i := 0; i < int(requeued); i++ {
			e.op(true) // a requeued cell is a failed attempt
		}
		if tracing {
			tracedRates = append(tracedRates, float64(len(sw.cells))/wall.Seconds())
		} else {
			rates = append(rates, float64(len(sw.cells))/wall.Seconds())
			e.opDone(wall)
		}
		walls = append(walls, wall.Seconds())
		leases += delta(c1, c0, "fabric_leases_total")
		requeues += requeued
		for _, ns := range f.execs.take() {
			execNS += ns
		}
		cells += len(sw.cells)
	}
	e.opCPU.end()
	if e.cachedCells > 0 {
		e.invalid = append(e.invalid, fmt.Sprintf("%d cells were answered from a cache", e.cachedCells))
	}
	if !e.traced {
		after, err := timeSetups(setupRepeats/2, start, stop)
		if err != nil {
			return err
		}
		e.setupDone(append(setups, after...))
		e.detail("sweep_cells_per_s", median(rates), "1/s")
		return nil
	}
	w.close(e, float64(len(walls)))
	if len(tracedRates) == 0 {
		return fmt.Errorf("the run ended before a traced sweep: give it more seconds")
	}
	slotNS := 2 * sum(walls) * 1e9
	plain := median(rates)
	e.set("trace.overhead_pct", 100*(plain-median(tracedRates))/plain, "%")
	e.detail("fabric.leases", leases, "count")
	e.detail("fabric.cells_per_lease", float64(cells)/leases, "count")
	e.detail("fabric.requeues", requeues, "count")
	e.detail("fabric.cell_exec_ms", float64(execNS)/float64(cells)/1e6, "ms")
	e.detail("fabric.overhead_ms_per_cell", (slotNS-float64(execNS))/float64(cells)/1e6, "ms")
	e.detail("fabric.worker_busy_ratio", float64(execNS)/slotNS, "ratio")
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
