# Convenience targets for the hotpotato reproduction.

GO ?= go

# Benchtime for the hot-loop baseline; CI overrides with BENCHTIME=1x for a
# smoke run, a committed baseline should use the default statistical run.
BENCHTIME ?= 1s

.PHONY: all build test test-short race bench bench-compare bench-all experiments vet fmt cover serve

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the short suite — validates docs/CONCURRENCY.md.
race:
	$(GO) test -short -race ./...

cover:
	$(GO) test -cover ./...

# Run the HTTP simulation service (docs/SERVICE.md) on :8080.
serve:
	$(GO) run ./cmd/hotpotato-server

# Regenerate every paper table & figure (tables to stdout).
experiments:
	$(GO) run ./cmd/experiments -exp all

# Hot-loop perf trajectory: kernel (matrix/thermal), epoch (sim), ring-scan
# (rotation) and sweep (root harness) benchmarks → BENCH_hotloop.json
# (docs/PERFORMANCE.md describes the format).
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkHotloop' -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -out BENCH_hotloop.json
	@echo "wrote BENCH_hotloop.json"

# Re-run the hot-loop suite and diff it against the committed baseline;
# fails when any shared benchmark's ns/op regressed more than 10%
# (benchjson -compare). The fresh run is left in /tmp, the committed
# BENCH_hotloop.json is untouched. Run with the default statistical
# BENCHTIME on the same class of machine as the baseline: a BENCHTIME=1x
# smoke run is warm-up-dominated and will report phantom regressions.
bench-compare:
	$(GO) test -run '^$$' -bench '^BenchmarkHotloop' -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_hotloop_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_hotloop.json /tmp/bench_hotloop_new.json

# One testing.B benchmark per paper table/figure.
bench-all:
	$(GO) test -bench=. -benchmem -benchtime 1x -run '^$$' ./...
