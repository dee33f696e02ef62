// Command hotpotato-dispatch is the sweep-fabric dispatcher: an HTTP daemon
// that accepts SweepSpec documents on the same POST /v1/batch wire contract
// as hotpotato-server, expands them, and shards the cells across pull-loop
// worker daemons (hotpotato-server instances started with -dispatcher).
//
//	hotpotato-dispatch -addr :9090 -archive /var/lib/hotpotato/archive
//	hotpotato-server   -addr :8081 -dispatcher http://localhost:9090
//	hotpotato-server   -addr :8082 -dispatcher http://localhost:9090
//	curl -X POST localhost:9090/v1/batch -d '{"base": {...}, "axes": {...}}'
//
// Workers pull: lease a batch of cells → stream results back → heartbeat.
// A worker that dies mid-lease costs one lease TTL, after which its booked
// cells are re-queued (bounded retries, then "failed"). Completed
// results are archived by SpecHash, so a re-posted sweep replays without
// touching a worker. See docs/SERVICE.md §"The sweep fabric" for operations,
// docs/API.md §"The sweep fabric" for the worker wire protocol.
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

	"repro/internal/fabric"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	leaseTTL := flag.Duration("lease-ttl", 0, "lease deadline extension per heartbeat; an unrefreshed lease expires and its cells re-queue (0 = 15s)")
	maxRetries := flag.Int("max-retries", 0, "re-leases per cell after lease expiries before it is reported failed (0 = 3, negative = none)")
	leaseCells := flag.Int("lease-cells", 0, "max sweep cells booked per lease (0 = 4)")
	maxSweepCells := flag.Int("max-sweep-cells", 0, "largest sweep cross-product /v1/batch accepts (0 = library max 65536)")
	batchHeartbeat := flag.Duration("batch-heartbeat", 0, "interval between /v1/batch progress records (0 = 10s)")
	archiveDir := flag.String("archive", "", "directory for the SpecHash-keyed result archive and per-sweep manifests (empty = archiving disabled)")
	sweepSpanDepth := flag.Int("sweep-span-depth", 0, "spans retained per sweep for /v1/sweeps/{id}/spans, worker-exported spans included (0 = 8192)")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "json", "log format: json|text")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	readHeader := flag.Duration("read-header-timeout", 5*time.Second, "limit on reading request headers (slowloris guard)")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection limit")
	flag.Parse()
	// Both are bounds whose 0 selects the default. A negative value is
	// rejected, not read as "off": progress records and the sweep span tree
	// are always on.
	if *batchHeartbeat < 0 || *sweepSpanDepth < 0 {
		fmt.Fprintln(os.Stderr, "-batch-heartbeat and -sweep-span-depth must not be negative (0 selects the default)")
		os.Exit(2)
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var archive *fabric.Archive
	if *archiveDir != "" {
		archive, err = fabric.NewArchive(*archiveDir, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	d := fabric.NewDispatcher(fabric.Config{
		LeaseTTL:       *leaseTTL,
		MaxRetries:     *maxRetries,
		LeaseCells:     *leaseCells,
		MaxSweepCells:  *maxSweepCells,
		Heartbeat:      *batchHeartbeat,
		Archive:        archive,
		SweepSpanDepth: *sweepSpanDepth,
		Logger:         logger,
	})
	reaperCtx, stopReaper := context.WithCancel(context.Background())
	defer stopReaper()
	go d.Run(reaperCtx)

	var handler http.Handler = d.Handler()
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

	// No ReadTimeout/WriteTimeout: /v1/batch responses stream for as long as
	// the sweep runs, and workers' results posts are small anyway.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeader,
		IdleTimeout:       *idle,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("hotpotato-dispatch listening", "addr", *addr, "archive", *archiveDir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err.Error())
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("signal received, shutting down", "signal", sig.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "error", err.Error())
	}
	logger.Info("bye")
}
