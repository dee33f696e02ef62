# Convenience targets for the hotpotato reproduction.

GO ?= go

# Benchtime for the hot-loop baseline; CI overrides with BENCHTIME=1x for a
# smoke run, a committed baseline should use the default statistical run.
BENCHTIME ?= 1s

.PHONY: all build test test-short race bench bench-compare bench-all experiments vet fmt cover serve probe-align

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
# (docs/PERFORMANCE.md describes the format). -p 1 runs one package's
# benchmarks at a time, so they do not compete for the CPUs.
bench:
	$(GO) test -p 1 -run '^$$' -bench '^BenchmarkHotloop' -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -out BENCH_hotloop.json
	@echo "wrote BENCH_hotloop.json"

# Re-run the hot-loop suite and diff it against the committed baseline;
# fails when any shared benchmark's ns/op regressed more than 10%
# (benchjson -compare). The fresh run is left in /tmp, the committed
# BENCH_hotloop.json is untouched. Run with the default statistical
# BENCHTIME on the same class of machine as the baseline: a BENCHTIME=1x
# smoke run is warm-up-dominated and will report phantom regressions.
bench-compare:
	$(GO) test -p 1 -run '^$$' -bench '^BenchmarkHotloop' -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_hotloop_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_hotloop.json /tmp/bench_hotloop_new.json

# One testing.B benchmark per paper table/figure.
bench-all:
	$(GO) test -bench=. -benchmem -benchtime 1x -run '^$$' ./...

# Check the alignment of perfbench's speed probe: build the benchmark binary
# (perfbench/run.sh) and fail unless main.(*refKernel).timeUS starts on a
# 64-byte boundary. A 32-byte shift makes the probe ~25 % faster and every
# normalized metric read that much worse (docs/PERFORMANCE.md, "Probe
# alignment"). The layout depends on the Go release, so this is a check to
# run before taking paired measurements, not a CI gate.
probe-align:
	@bash perfbench/run.sh -h >/dev/null 2>&1 || { echo "perfbench build failed; run: bash perfbench/run.sh -h"; exit 1; }
	@addr=$$($(GO) tool nm .bench_build/perfbench | awk '$$3 == "main.(*refKernel).timeUS" {print $$1}'); \
		test -n "$$addr" || { echo "main.(*refKernel).timeUS not found in .bench_build/perfbench"; exit 1; }; \
		off=$$(( 0x$$addr % 64 )); \
		echo "main.(*refKernel).timeUS at 0x$$addr, $$off mod 64"; \
		test $$off -eq 0
