GO ?= go

.PHONY: all build test race fuzz-smoke vet fmt-check bench bench-smoke bench-go bench-sweep serve-smoke dispatch-smoke cache-smoke chaos-smoke clean

all: build test vet fmt-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector (CI runs this as its own
# job; it is several times slower than plain `make test`).
race:
	$(GO) test -race ./...

# fuzz-smoke runs each checked-in fuzz target briefly against its seed corpus
# plus a short exploration budget. A regression found here reproduces with
# `go test -run=Fuzz` once the failing input is added to testdata.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReader$$ -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzReaderStreaming -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzEstimateRequestJSON -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzSweepRequestJSON -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzReadResults -fuzztime=$(FUZZTIME) ./internal/dispatch

vet:
	$(GO) vet ./...

# fmt-check fails when any file is not gofmt-clean (CI-friendly: no rewrite).
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench runs the benchmark-regression harness (internal/perf) at full size:
# every scenario on both the event-driven and the cycle-by-cycle reference
# driver, plus the sweep-level warmup-sharing benchmark (cold vs checkpointed
# accuracy-sweep fixture), writing the BENCH_<n>.json trajectory artifact.
# Takes a few minutes.
BENCH_OUT ?= BENCH_9.json
bench:
	$(GO) run ./cmd/gdpsim bench -out $(BENCH_OUT)

# bench-smoke is the CI regression gate: a small fixed-seed scenario on the
# fast driver only, failing if the steady-state interval loop allocates, if
# checkpointed warmup sharing yields less than 1.5x on the tiny sweep fixture,
# or if the parallel driver (-sim-workers) is slower than 1.5x serial on the
# 16-core point / diverges from serial byte for byte. The parallel speedup
# half self-waives on machines with fewer than 4 CPUs; identity always gates.
bench-smoke:
	$(GO) run ./cmd/gdpsim bench -quick -out /dev/null -max-allocs 0.5 -min-sweep-speedup 1.5 -min-parallel-speedup 1.5

# serve-smoke boots the real binary, curls /healthz and /metrics and checks
# the telemetry exposition end to end (see scripts/serve_smoke.sh).
serve-smoke:
	sh scripts/serve_smoke.sh

# dispatch-smoke boots two real workers, shards a sweep across them with
# `gdpsim sweep -workers`, byte-compares the rows against a single-machine
# run and checks the dispatch telemetry (see scripts/dispatch_smoke.sh).
dispatch-smoke:
	sh scripts/dispatch_smoke.sh

# cache-smoke byte-compares a sweep run unbounded against the same sweep
# under a starved -cache-mem-mb budget with disk spill, twice (cold and warm
# disk tier); see scripts/cache_smoke.sh.
cache-smoke:
	sh scripts/cache_smoke.sh

# chaos-smoke SIGKILLs a journaled sweep mid-grid under injected disk faults,
# resumes it, and runs a fleet sweep against a worker with an injected
# cell-execution panic and cut result streams — all byte-compared against an
# uninterrupted fault-free run (see scripts/chaos_smoke.sh).
chaos-smoke:
	sh scripts/chaos_smoke.sh

# bench-go runs the go-test figure/regeneration benchmarks.
bench-go:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-sweep compares the runner's serial vs parallel accuracy-study
# wall-clock (BenchmarkAccuracySweep/jobs=1 vs /jobs=N).
bench-sweep:
	$(GO) test -bench=BenchmarkAccuracySweep -run=^$$ .

clean:
	$(GO) clean ./...
