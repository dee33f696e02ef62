package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	hotpotato "repro"
	"repro/internal/service"
)

// serve_mix drives one in-process service.Server (two slots, the committed
// twin model) with open-loop Poisson arrivals over two connections. Four
// request classes share the stream: fresh /v1/run specs (mostly 4×4, a
// fifth on 8×8, so the platform cache holds two entries), repeats of recent
// specs (result-cache hits), If-None-Match revalidations (304) and
// /v1/predict on static-scheduler specs inside the twin's domain.

const (
	// serveRate keeps the server's two slots about half busy on a two-core
	// host at every seed (the run notes the measured share).
	serveRate  = 300.0
	serveConns = 2
	// Repeats and revalidations refer to one of the last repeatWindow fresh
	// specs, and never to one sent fewer than repeatGap requests before, so
	// they hit the result cache (256 entries) rather than coalesce onto a run
	// still in flight.
	repeatWindow = 96
	repeatGap    = 24
	// lateLimit is how late the generator may release the 99th percentile
	// of requests before the run is flagged as an invalid measurement
	// rather than a slow one. A host stall causes it, not the program, so
	// it does not make the run incorrect.
	lateLimit = 20 * time.Millisecond
)

const (
	classMiss = iota
	classHit
	class304
	classPredict
)

var classNames = []string{"miss", "hit", "304", "predict"}

type serveRequest struct {
	class int
	path  string
	doc   []byte
	etag  string // If-None-Match of a revalidation
	gold  string // expected digest
}

// serveMix generates the request stream and its due times from seed.
func serveMix(cat *catalog, gold *golden, seed int64, window time.Duration) ([]serveRequest, []time.Duration, error) {
	r := rand.New(rand.NewSource(seed))
	small, large := r.Perm(len(cat.small)), r.Perm(len(cat.large))
	nSmall, nLarge := 0, 0
	var reqs []serveRequest
	var dues []time.Duration
	var fresh []int // indices into reqs of fresh runs, in order
	t := 0.0
	for {
		t += r.ExpFloat64() / serveRate
		if t >= window.Seconds() {
			break
		}
		class := r.Intn(100)
		switch {
		case class < 28:
			class = classMiss
		case class < 52:
			class = classHit
		case class < 76:
			class = class304
		default:
			class = classPredict
		}
		// The eligible earlier fresh runs: sent at least repeatGap requests
		// ago, among the last repeatWindow.
		hi := len(fresh)
		for hi > 0 && fresh[hi-1] > len(reqs)-repeatGap {
			hi--
		}
		lo := max(0, hi-repeatWindow)
		if (class == classHit || class == class304) && hi == lo {
			class = classMiss
		}
		var q serveRequest
		switch class {
		case classMiss:
			// A spec comes round again only after the whole catalogue, long
			// after the result cache evicted it: every fresh run is a miss.
			if r.Intn(5) == 0 {
				k := large[nLarge%len(large)]
				q = serveRequest{doc: cat.large[k], gold: gold.Large[k]}
				nLarge++
			} else {
				k := small[nSmall%len(small)]
				q = serveRequest{doc: cat.small[k], gold: gold.Small[k]}
				nSmall++
			}
			q.path = "/v1/run"
			fresh = append(fresh, len(reqs))
		case classHit, class304:
			q = reqs[fresh[lo+r.Intn(hi-lo)]]
			if class == class304 {
				spec, err := decodeSpec(q.doc)
				if err != nil {
					return nil, nil, err
				}
				hash, err := hotpotato.SpecHash(spec)
				if err != nil {
					return nil, nil, err
				}
				q.etag = `"` + hash + `"`
			}
		case classPredict:
			k := r.Intn(len(cat.predict))
			q = serveRequest{path: "/v1/predict", doc: cat.predict[k], gold: gold.Predict[k]}
		}
		q.class = class
		reqs = append(reqs, q)
		dues = append(dues, time.Duration(t*float64(time.Second)))
	}
	return reqs, dues, nil
}

// servedStack is one service.Server listening on a loopback port.
type servedStack struct {
	svc *service.Server
	hs  *http.Server
	url string
}

// startServe brings the service up: twin model loaded, listening, and the
// platform cache warmed with both grid sizes the mix uses.
func startServe() (*servedStack, error) {
	model, err := hotpotato.LoadTwinModelFile("TWIN_model.json")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: 2, TwinModel: model})
	for _, edge := range []int{4, 8} {
		if _, err := svc.Cache().Get(hotpotato.RunSpec{Platform: hotpotato.DefaultPlatformConfig(edge, edge)}.WithDefaults().Platform); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: svc.Handler()}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed once stopped
	return &servedStack{svc: svc, hs: hs, url: "http://" + ln.Addr().String()}, nil
}

func (s *servedStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // best effort at exit: nothing is in flight
	_ = s.svc.Shutdown(ctx)
}

// serveOutcome is what the client saw for one request.
type serveOutcome struct {
	status  int
	bytes   int
	cached  bool
	wireNS  int64 // from send to body read
	profile struct {
		TotalNS, QueueNS, BuildNS, DecideNS, StepNS int64
	}
	// Scheduler host time and invocations of a fresh simulation.
	decideNS int64
	decides  int
	bad      error
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
}

// sendOne performs request q and checks its answer against the golden digest.
func sendOne(client *http.Client, base string, q serveRequest, spans *spanLog, op string) serveOutcome {
	var out serveOutcome
	root := spans.start("request/"+classNames[q.class], op, 0)
	defer spans.end(root)
	httpSpan := spans.start("http", op, root)
	t := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+q.path, bytes.NewReader(q.doc))
	if err != nil {
		out.bad = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if q.etag != "" {
		req.Header.Set("If-None-Match", q.etag)
	}
	resp, err := client.Do(req)
	if err != nil {
		out.bad = err
		spans.end(httpSpan)
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.wireNS = time.Since(t).Nanoseconds()
	spans.end(httpSpan)
	if err != nil {
		out.bad = err
		return out
	}
	out.status, out.bytes = resp.StatusCode, len(body)

	verify := spans.start("verify", op, root)
	defer spans.end(verify)
	want := http.StatusOK
	if q.class == class304 {
		want = http.StatusNotModified
	}
	if out.status != want {
		out.bad = fmt.Errorf("%s %s: status %d, want %d", classNames[q.class], q.path, out.status, want)
		return out
	}
	switch q.class {
	case classMiss, classHit:
		var env struct {
			Result  *hotpotato.Result `json:"result"`
			Cached  bool              `json:"cached"`
			Profile *struct {
				TotalNS  int64 `json:"total_ns"`
				QueueNS  int64 `json:"queue_ns"`
				BuildNS  int64 `json:"build_ns"`
				DecideNS int64 `json:"decide_ns"`
				StepNS   int64 `json:"step_ns"`
			} `json:"profile"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Result == nil {
			out.bad = fmt.Errorf("undecodable /v1/run answer: %v", err)
			return out
		}
		out.cached = env.Cached
		if !env.Cached {
			out.decideNS = env.Result.SchedulerHostTime.Nanoseconds()
			out.decides = env.Result.SchedulerInvocations
		}
		if env.Profile != nil {
			p := env.Profile
			out.profile.TotalNS, out.profile.QueueNS, out.profile.BuildNS = p.TotalNS, p.QueueNS, p.BuildNS
			out.profile.DecideNS, out.profile.StepNS = p.DecideNS, p.StepNS
		}
		hash := strings.Trim(resp.Header.Get("ETag"), `"`)
		if got := resultDigest(hash, env.Result); got != q.gold {
			out.bad = fmt.Errorf("/v1/run digest %s, golden %s", got, q.gold)
		}
	case classPredict:
		var p predictBody
		if err := json.Unmarshal(body, &p); err != nil {
			out.bad = fmt.Errorf("undecodable /v1/predict answer: %v", err)
			return out
		}
		if got := predictDigest(p); got != q.gold {
			out.bad = fmt.Errorf("/v1/predict digest %s, golden %s", got, q.gold)
		}
	}
	return out
}

// serveRun is one pass of the mix against a stack.
type serveRun struct {
	reqs     []serveRequest
	outcomes []serveOutcome
	timings  []openLoopResult
}

func serveOnce(stack *servedStack, reqs []serveRequest, dues []time.Duration, spans *spanLog) *serveRun {
	client := newClient()
	defer client.CloseIdleConnections()
	outcomes := make([]serveOutcome, len(reqs))
	timings := runOpenLoop(dues, serveConns, func(i int) error {
		outcomes[i] = sendOne(client, stack.url, reqs[i], spans, fmt.Sprintf("req-%d", i))
		return outcomes[i].bad
	})
	return &serveRun{reqs: reqs, outcomes: outcomes, timings: timings}
}

// latencies returns the due-to-done latencies of one class, in ms.
func (r *serveRun) latencies(class int) []float64 {
	var out []float64
	for i, q := range r.reqs {
		if q.class == class && r.timings[i].Err == nil {
			out = append(out, float64(r.timings[i].Latency.Nanoseconds())/1e6)
		}
	}
	return out
}

func (r *serveRun) lateP99() float64 {
	late := make([]float64, len(r.timings))
	for i, t := range r.timings {
		late[i] = float64(t.Late.Nanoseconds()) / 1e6
	}
	s := sortedCopy(late)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)*99/100]
}

// account counts every request as an operation and notes the first failures.
func (e *env) account(r *serveRun) {
	shown, cachedMisses := 0, 0
	for i, o := range r.outcomes {
		e.op(o.bad != nil)
		if o.bad != nil && shown < 5 {
			e.note("failed: %v", o.bad)
			shown++
		}
		if r.reqs[i].class == classMiss && o.cached {
			cachedMisses++
		}
	}
	if cachedMisses > 0 {
		e.invalid = append(e.invalid, fmt.Sprintf("%d fresh runs were answered from the result cache", cachedMisses))
	}
	late := r.lateP99()
	e.detail("gen.late_ms", late, "ms")
	if late > float64(lateLimit.Milliseconds()) {
		e.note("INVALID measurement: the generator released the 99th percentile of requests %.1f ms late (limit %v); the latencies include the host's stall", late, lateLimit)
	}
	var busy int64
	for _, o := range r.outcomes {
		busy += o.profile.BuildNS + o.profile.DecideNS + o.profile.StepNS
	}
	e.note("%d requests; slots busy %.0f %% of the window", len(r.reqs),
		100*float64(busy)/(2*float64(e.seconds.Nanoseconds())))
}

func runServeMix(e *env) error {
	reqs, dues, err := serveMix(e.cat, e.gold, e.seed, e.seconds)
	if err != nil {
		return err
	}
	var stack *servedStack
	start := func() (err error) {
		stack, err = startServe()
		return err
	}
	stop := func() {
		if stack != nil {
			stack.stop()
			stack = nil
		}
	}
	defer stop()
	setups, err := timeSetups(setupRepeats-setupRepeats/2, start, stop)
	if err != nil {
		return err
	}
	if e.traced {
		return traceServeMix(e, stack, reqs, dues)
	}

	// The operation is one request, timed from when it was due.
	e.opCPU.begin()
	run := serveOnce(stack, reqs, dues, nil)
	e.opCPU.end()
	e.account(run)
	for _, t := range run.timings {
		e.opDone(t.Latency)
	}
	after, err := timeSetups(setupRepeats/2, start, stop)
	if err != nil {
		return err
	}
	e.setupDone(append(setups, after...))
	for _, m := range []struct {
		class int
		name  string
	}{{classMiss, "run_miss"}, {classHit, "run_hit"}, {class304, "run_304"}, {classPredict, "predict"}} {
		lat := run.latencies(m.class)
		if len(lat) == 0 {
			return fmt.Errorf("no %s samples", m.name)
		}
		e.detail(m.name+"_p50_ms", median(lat), "ms")
	}
	return nil
}

func traceServeMix(e *env, stack *servedStack, reqs []serveRequest, dues []time.Duration) error {
	// The untraced pass on this stack first, then the same schedule traced
	// on a fresh stack: the difference in median latency is the tracing
	// overhead.
	w := openWindow()
	plain := serveOnce(stack, reqs, dues, nil)
	for _, o := range plain.outcomes {
		if o.decides > 0 {
			e.decided(o.decideNS, o.decides)
		}
	}
	w.close(e, float64(len(reqs)))
	e.account(plain)
	fresh, err := startServe()
	if err != nil {
		return err
	}
	defer fresh.stop()
	traced := serveOnce(fresh, reqs, dues, e.spans)
	e.account(traced)

	all := func(r *serveRun) []float64 {
		var out []float64
		for c := range classNames {
			out = append(out, r.latencies(c)...)
		}
		return out
	}
	p, t := median(all(plain)), median(all(traced))
	e.set("trace.overhead_pct", 100*(t-p)/p, "%")
	// Tails swing by a third between identical runs on a shared two-core
	// host (the 11th-slowest request rides on scheduler and neighbour
	// noise), so they are reported here, without a regression bound.
	for _, m := range []struct {
		class int
		name  string
	}{{classMiss, "run_miss"}, {classHit, "run_hit"}, {classPredict, "predict"}} {
		v, pct, n, ok := tail(plain.latencies(m.class))
		if !ok {
			return fmt.Errorf("%s: %d samples are too few for a tail", m.name, n)
		}
		e.detail(m.name+"_tail_ms", v, "ms")
		e.note("%s_tail_ms is p%.2f of %d samples", m.name, pct, n)
	}

	var slot, exec, overhead []float64
	size := map[int][]float64{}
	for i, o := range plain.outcomes {
		size[plain.reqs[i].class] = append(size[plain.reqs[i].class], float64(o.bytes)/1024)
		if plain.reqs[i].class != classMiss || o.bad != nil {
			continue
		}
		slot = append(slot, float64(o.profile.QueueNS)/1e6)
		exec = append(exec, float64(o.profile.DecideNS+o.profile.StepNS)/1e6)
		overhead = append(overhead, float64(o.wireNS-o.profile.TotalNS)/1e6)
	}
	e.detail("service.slot_wait_ms", mean(slot), "ms")
	e.detail("service.exec_ms", mean(exec), "ms")
	e.detail("service.http_overhead_ms", mean(overhead), "ms")
	e.detail("service.response_kb.miss", mean(size[classMiss]), "KiB")
	e.detail("service.response_kb.hit", mean(size[classHit]), "KiB")
	e.detail("service.response_kb.predict", mean(size[classPredict]), "KiB")
	hits, misses, _ := stack.svc.Results().Stats()
	e.detail("service.result_cache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	_, platMisses := stack.svc.Cache().Stats()
	e.detail("service.platform_cache.misses", float64(platMisses), "count")

	return nil
}
