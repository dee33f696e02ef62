// Command hotpotato-server is the simulation service: an HTTP/JSON daemon
// that accepts declarative RunSpec documents and executes them on a bounded
// worker pool, sharing thermal models between requests.
//
//	hotpotato-server -addr :8080
//	curl -X POST localhost:8080/v1/run -d '{
//	  "platform":  {"width": 4, "height": 4},
//	  "scheduler": {"name": "hotpotato"},
//	  "workload":  {"kind": "homogeneous", "bench": "blackscholes", "total_threads": 4}
//	}'
//
// Logging is structured (log/slog) on stderr — JSON by default, one object
// per line with a request_id on every request-scoped record — and every run
// is span-traced end to end (GET /v1/jobs/{id}/spans). See docs/SERVICE.md
// for the endpoints and the RunSpec schema, docs/OBSERVABILITY.md for the
// log schema and span semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "async job queue depth (0 = 64)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget before in-flight runs are cancelled")
	retention := flag.Duration("job-retention", 0, "how long finished async jobs stay queryable (0 = 10m)")
	traceDepth := flag.Int("trace-depth", 0, "scheduler epochs retained per async job for /v1/jobs/{id}/trace (0 = 4096)")
	spanDepth := flag.Int("span-depth", 0, "spans retained per async job for /v1/jobs/{id}/spans (0 = 8192)")
	twinModel := flag.String("twin-model", "", "analytical-twin calibration artifact (TWIN_model.json) backing POST /v1/predict; empty disables it")
	resultCache := flag.Int("result-cache-entries", 0, "content-addressed result cache capacity in entries (0 = 256)")
	maxSweepCells := flag.Int("max-sweep-cells", 0, "largest sweep cross-product /v1/batch accepts (0 = 1024)")
	batchHeartbeat := flag.Duration("batch-heartbeat", 0, "interval between /v1/batch progress records (0 = 10s)")
	dispatcher := flag.String("dispatcher", "", "fabric dispatcher base URL; when set the server also runs a sweep-fabric worker pull loop against it")
	workerID := flag.String("worker-id", "", "fabric worker identity on the dispatcher's roster (empty = hostname plus a random suffix)")
	leaseCells := flag.Int("lease-cells", 0, "sweep cells requested per fabric lease (0 = dispatcher default)")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "json", "log format: json|text")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	readHeader := flag.Duration("read-header-timeout", 5*time.Second, "limit on reading request headers (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "limit on reading a full request including the body")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection limit")
	flag.Parse()
	// Each sizing flag is a bound whose 0 selects the default. A negative
	// value is rejected, not read as "off": every bounded store and
	// telemetry stream is always on.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"job-retention", int64(*retention)},
		{"trace-depth", int64(*traceDepth)},
		{"span-depth", int64(*spanDepth)},
		{"result-cache-entries", int64(*resultCache)},
		{"batch-heartbeat", int64(*batchHeartbeat)},
	} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "-%s must not be negative (0 selects the default)\n", f.name)
			os.Exit(2)
		}
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var twin *hotpotato.TwinModel
	if *twinModel != "" {
		twin, err = hotpotato.LoadTwinModelFile(*twinModel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		logger.Info("twin model loaded", "path", *twinModel, "hash", twin.Hash)
	}

	svc := service.New(service.Config{
		Workers: *workers, QueueDepth: *queue,
		JobRetention: *retention, TraceDepth: *traceDepth, SpanDepth: *spanDepth,
		ResultCacheEntries: *resultCache,
		MaxSweepCells:      *maxSweepCells,
		BatchHeartbeat:     *batchHeartbeat,
		Logger:             logger,
		TwinModel:          twin,
	})
	handler := svc.Handler()
	if *enablePprof {
		// Behind a flag: the profiling endpoints expose internals and cost
		// CPU, so an operator opts in per deployment.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	// No WriteTimeout: synchronous /v1/run responses legitimately take as
	// long as the simulation they carry.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeader,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idle,
	}

	// Worker mode rides alongside serving: the pull loop plugs the service's
	// cache-consulting cell executor into the fabric, so leased cells share
	// the result cache (and worker semaphore) with local /v1 traffic.
	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	workerDone := make(chan struct{})
	close(workerDone)
	if *dispatcher != "" {
		fw := &fabric.Worker{
			Dispatcher: *dispatcher,
			ID:         *workerID,
			LeaseCells: *leaseCells,
			Exec:       svc.ExecuteCell,
			Logger:     logger,
		}
		workerDone = make(chan struct{})
		go func() {
			defer close(workerDone)
			fw.Run(workerCtx)
		}()
		logger.Info("fabric worker mode enabled", "dispatcher", *dispatcher)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("hotpotato-server listening", "addr", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err.Error())
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String(), "budget", drain.String())
	}

	// Stop leasing new fabric work before draining: in-flight leased cells
	// finish (or cancel) with the service drain below.
	stopWorker()
	<-workerDone

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "error", err.Error())
	}
	if err := svc.Shutdown(ctx); err != nil {
		logger.Warn("service drain expired, in-flight runs were cancelled", "error", err.Error())
	}
	logger.Info("bye")
}
