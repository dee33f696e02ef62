// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, the HTTP service or the sweep fabric, all
// in this process, checks every simulated output against the committed
// golden digests, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Every workload reports every metric BENCHMARK.json names, so each metric is
// defined for all of them: with -trace 0 the end-to-end ones (set-up time,
// peak memory, and the process CPU time one operation of the workload costs,
// both times at a reference host speed: speed.go);
// with -trace 1 the per-layer ones, from counters around the workload's
// traced pass and from timed calls into each layer's public functions on
// fixed inputs. Wall-clock times of operations, and figures that only one
// workload has (latency per request class, fabric overhead), are printed as
// "# detail" lines: on a virtual machine whose hypervisor steals CPU time,
// the latency of a millisecond request swings by a factor of two to three
// between runs minutes apart, while the process's CPU time per operation
// moves only with the host's speed.
// NOTES.md explains each workload and metric. Run it from the checkout root
// through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 20 --trace 0
//
// -compare judges a change against its parent from paired runs of one
// workload (see compare.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median. The host's speed drifts over seconds, so a run sets up both before
// and after its timed phase.
const setupRepeats = 21

// setupSample is one timed set-up, in seconds: as measured, and at the
// reference speed (speed.go), from the kernel timed on the same OS thread
// just before and just after it.
type setupSample struct{ measured, atRef float64 }

// timeSetups calls teardown and then setup n times, and returns how long each
// set-up took. teardown must accept having nothing to tear down.
func timeSetups(n int, setup func() error, teardown func()) ([]setupSample, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k := newRefKernel()
	var out []setupSample
	for i := 0; i < n; i++ {
		teardown()
		runtime.GC() // so no sample pays for the garbage of the one before
		before := k.timeUS(3)
		t := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		s := time.Since(t).Seconds()
		scale := 1.0
		if ref := (before + k.timeUS(3)) / 2; before > 0 && ref > 0 {
			scale = refNominalUS / ref
		}
		out = append(out, setupSample{s, s * scale})
	}
	return out, nil
}

// setupDone records the median set-up time, as measured and at the
// reference speed.
func (e *env) setupDone(samples []setupSample) {
	ms := make([]float64, len(samples))
	var measured, atRef []float64
	for i, s := range samples {
		ms[i] = s.measured * 1e3
		measured = append(measured, s.measured)
		atRef = append(atRef, s.atRef)
	}
	e.setup = setupSample{median(measured), median(atRef)}
	e.note("set-ups took %.3g ms", ms)
}

// outDir holds what a run leaves behind (span files); run.sh builds there too.
const outDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one benchmark run: its arguments, inputs and accumulating report.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	cat     *catalog
	gold    *golden
	spans   *spanLog // nil with tracing off

	rep         report
	invalid     []string    // reasons the run cannot stand as a measurement
	cachedCells int         // fleet cells answered from a cache instead of run
	opMS        []float64   // duration of each operation of the timed phase
	opCPU       cpuSpan     // process CPU time of the timed phase
	setup       setupSample // median set-up time
	decideNS    int64       // scheduler host time of the results a traced pass saw
	decides     int         // and their scheduler invocations
}

func (e *env) set(name string, value float64, unit string) {
	e.rep.Metrics[name] = metric{Value: value, Unit: unit}
}

// note prints an informational line; the result line always comes last.
func (e *env) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// detail prints a figure that is not one of BENCHMARK.json's metrics, in the
// form of a metric.
func (e *env) detail(name string, value float64, unit string) {
	e.note("detail %s = %.6g %s", name, value, unit)
}

// cpuSpan measures the process's CPU time between begin and end, and the
// share of the host's CPU time the hypervisor stole meanwhile.
type cpuSpan struct {
	start, total time.Duration
	wall         time.Time
	steal0       float64
	stealShare   float64
}

func (c *cpuSpan) begin() {
	c.start, c.wall, c.steal0 = cpuTime(), time.Now(), stealSeconds()
}

func (c *cpuSpan) end() {
	c.total = cpuTime() - c.start
	avail := time.Since(c.wall).Seconds() * float64(runtime.NumCPU())
	c.stealShare = (stealSeconds() - c.steal0) / avail
}

// opDone records the duration of one operation of the timed phase.
func (e *env) opDone(d time.Duration) {
	e.opMS = append(e.opMS, float64(d.Nanoseconds())/1e6)
}

// decided adds a simulation's scheduler host time (Result.SchedulerHostTime
// and SchedulerInvocations) to the traced pass's totals.
func (e *env) decided(hostNS int64, invocations int) {
	e.decideNS += hostNS
	e.decides += invocations
}

// op counts one operation and whether it failed.
func (e *env) op(failed bool) {
	e.rep.Attempted++
	if failed {
		e.rep.Failed++
	}
}

var workloads = map[string]func(*env) error{
	"paper_fig4":      runPaperFig4,
	"serve_mix":       runServeMix,
	"sparse_rotation": runSparseRotation,
	"fleet_sweep":     runFleetSweep,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper_fig4, serve_mix, sparse_rotation or fleet_sweep")
	seed := flag.Int64("seed", 1, "seed of the workload's input generator")
	seconds := flag.Float64("seconds", 20, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	regen := flag.Bool("regen-golden", false, "recompute "+goldenPath+" from the direct execution paths and exit")
	cmp := flag.Bool("compare", false, "judge paired runs: perfbench -compare PARENT CHANGE, each file holding one result line per run")
	flag.Parse()

	var err error
	if *cmp {
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs the parent's and the change's result files")
		} else {
			err = compare(flag.Arg(0), flag.Arg(1))
		}
	} else {
		err = run(*name, *seed, *seconds, *trace, *regen)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, regen bool) error {
	cat := newCatalog()
	if regen {
		return regenGolden(cat)
	}
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	e := &env{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		traced:  trace == 1,
		cat:     cat,
		gold:    gold,
		rep:     report{Metrics: map[string]metric{}},
	}
	if e.traced {
		e.spans = newSpanLog()
	}
	e.note("workload %s seed %d seconds %g trace %d gomaxprocs %d", name, seed, seconds, trace, runtime.GOMAXPROCS(0))
	var probe *speedProbe
	if !e.traced {
		probe = startSpeedProbe()
	}
	if err := fn(e); err != nil {
		return err
	}
	if e.traced {
		if err := probeLayers(e); err != nil {
			return err
		}
	} else {
		if len(e.opMS) == 0 {
			return fmt.Errorf("the timed phase finished no operation")
		}
		scale, refUS, n := probe.finish()
		cpuMS := float64(e.opCPU.total.Nanoseconds()) / 1e6 / float64(len(e.opMS))
		e.set("peak_rss_mb", peakRSSMB(), "MB")
		e.set("op_cpu_ms", cpuMS*scale, "ms")
		e.set("setup_s", e.setup.atRef, "s")
		e.note("times at the reference speed: the speed probe's kernel took %.1f us (mean of %d), reference %.0f us, scale %.4f",
			refUS, n, refNominalUS, scale)
		e.detail("op_cpu_ms.measured", cpuMS, "ms")
		e.detail("setup_s.measured", e.setup.measured, "s")
		e.detail("op_p50_ms", median(e.opMS), "ms")
		e.note("%d operations; the hypervisor stole %.1f %% of the CPUs meanwhile", len(e.opMS), 100*e.opCPU.stealShare)
		if len(e.opMS) <= 16 {
			e.note("operations took %.0f ms", e.opMS)
		}
	}
	if err := checkManifest(e.rep.Metrics, e.traced); err != nil {
		return err
	}
	if e.spans != nil {
		path := filepath.Join(outDir, "spans-"+name+".jsonl")
		if err := e.spans.write(path); err != nil {
			return err
		}
		e.note("spans written to %s", path)
		e.spans.printSelfTimes(e)
	}
	for _, why := range e.invalid {
		e.note("INVALID: %s", why)
	}
	e.rep.Correct = e.rep.Failed == 0 && len(e.invalid) == 0
	line, err := json.Marshal(e.rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// --- process measurements ----------------------------------------------------

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stealSeconds is the CPU time the hypervisor has stolen from all of this
// machine's CPUs since boot (the steal column of /proc/stat); 0 where
// unknown.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters reads the program's own telemetry counters (the obs registry).
func counters() map[string]int64 {
	c, _ := hotpotato.Metrics().Values()
	return c
}

func delta(after, before map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// timeCalls runs fn reps times and returns the median duration of one call in
// microseconds.
func timeCalls(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return median(d)
}

// --- the benchmark's own spans -------------------------------------------------

// spanRecord is one span the benchmark recorded around a call into a layer
// (or one the program recorded and the benchmark collected). Op is shared by
// every span of one request or cell.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	StartNS int64  `json:"start_ns"` // since the run started
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how tracing is off.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRecord
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) start(name, op string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, spanRecord{ID: len(l.spans) + 1, Parent: parent, Name: name, Op: op, StartNS: now})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNS = now
	l.mu.Unlock()
}

// graft adds spans the program recorded (ExecuteSpec's span tree) under
// parent, renumbering their IDs.
func (l *spanLog) graft(recs []obs.SpanRecord, parent int, op string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make(map[obs.SpanID]int, len(recs))
	for _, r := range recs {
		ids[r.ID] = len(l.spans) + 1
		p := parent
		if r.Parent != 0 {
			if mapped, ok := ids[r.Parent]; ok {
				p = mapped
			}
		}
		start := r.StartUnixNS - l.t0.UnixNano()
		l.spans = append(l.spans, spanRecord{ID: len(l.spans) + 1, Parent: p, Name: r.Name, Op: op,
			StartNS: start, EndNS: start + r.DurationNS})
	}
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	kids := make(map[int][]spanRecord)
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent spanRecord, children []spanRecord) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].StartNS < children[j].StartNS })
	var total, reach int64 = 0, parent.StartNS
	for _, c := range children {
		lo, hi := max(c.StartNS, reach), min(c.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

func (l *spanLog) printSelfTimes(e *env) {
	self := l.selfTimes()
	var total time.Duration
	names := make([]string, 0, len(self))
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		e.note("self time %-18s %10.1f ms %5.1f %%", n, float64(self[n].Microseconds())/1e3,
			100*float64(self[n])/float64(max(total, 1)))
	}
}
