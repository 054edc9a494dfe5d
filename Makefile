# Standard verify entrypoint: `make check` is what CI (and humans) run.
GO ?= go
# Each PR writes its own trajectory file so earlier ones stay comparable.
BENCH ?= BENCH_PR10.json

.PHONY: check fmt vet durable-only build test race fuzz-seeds fuzz bench cover placerd trace-demo fleet-demo chaos-demo placertop-demo golden

check: fmt vet durable-only build test race fuzz-seeds

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# durable-only keeps internal/durable the one durable write path: no other
# non-test Go file may call os.CreateTemp (write through durable.WriteFile
# instead). placebench/ is excluded; it is frozen and has no such call.
durable-only:
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' 'os\.CreateTemp' . \
		| grep -v -e '^\./internal/durable/' -e '^\./placebench/'); \
	if [ -n "$$out" ]; then \
		echo "os.CreateTemp outside internal/durable (use durable.WriteFile):"; \
		echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The job manager (now including the durable store and result cache), the
# checkpoint codec, the durable write helper, the shared retry backoff,
# telemetry, engine cancellation, the numerical-health guard, the fault
# injection harness, and every parallel evaluation path (worker pool,
# density pipeline, wirelength reduction) must be clean under
# the race detector; the placer/density/wirelength suites include the
# parallel-vs-serial equivalence tests, the service suite includes the
# kill-and-recover, panic-isolation, and cache-hit tests, the fleet suite
# includes the journal crash-recovery and cancel-vs-dispatch race tests, and
# the ecocache/netlist suites cover the concurrent cache and content hashing
# the ECO fast path keys on.
#
# The stress pass then repeats the tests that pin publish ordering 50 times
# each, so an ordering race fails CI instead of passing on most runs: the
# exact-hit and near-hit cache tests and the publish-order test (a job reads
# done only after its counters, running gauge, and cache entry are
# committed), and the coordinator test (a terminal fleet job never
# regresses). The two cache tests run a full placement per repetition and
# take several seconds each under -race, hence the longer timeout.
race:
	$(GO) test -race ./internal/service/... ./internal/placer/... \
		./internal/checkpoint/... ./internal/density/... \
		./internal/wirelength/... ./internal/parallel/... \
		./internal/obs/... ./internal/guard/... ./internal/faultinject/... \
		./internal/fleet/... ./internal/chaos/... ./internal/ecocache/... \
		./internal/netlist/... ./internal/trajclient/... ./internal/placertop/... \
		./internal/durable/... ./internal/backoff/...
	$(GO) test -race -count=50 -timeout=30m \
		-run '^(TestCacheExactHitBitIdentical|TestCacheNearHitWarmStartsFromParent|TestDonePublishedAfterSideEffects)$$' \
		./internal/service/
	$(GO) test -race -count=50 -run '^TestTerminalJobNeverRegresses$$' ./internal/fleet/

# fuzz-seeds replays the fuzz seed corpora as regular tests (regression
# mode, no exploration) so `make check` keeps the known-hostile Bookshelf
# inputs and the content-hash invariance properties covered without the
# open-ended fuzzing time.
fuzz-seeds:
	$(GO) test -run=FuzzParse ./internal/bookshelf/
	$(GO) test -run=FuzzContentHashInvariance ./internal/netlist/

# fuzz explores: feed the Bookshelf parsers random inputs for a bounded time.
# Any crasher is written to internal/bookshelf/testdata/fuzz/ — commit it as
# a permanent regression seed after fixing.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/bookshelf/

# bench refreshes the machine-readable perf trajectory: every benchmark runs
# once and $(BENCH) records ns/op + allocs/op per benchmark plus the
# workers=N speedups of the parallel density/eval pipeline. benchjson is
# prebuilt and packages run serially (-p 1) so neither the converter's
# compile nor another package's build steals cycles from a measured
# iteration — at -benchtime=1x on a small machine that contention is visible
# in the numbers.
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -p 1 -bench=. -benchtime=1x -run='^$$' ./... | ./bin/benchjson > $(BENCH)
	@echo "wrote $(BENCH)"

# cover writes an aggregate coverage profile and prints the per-package
# summary; open cover.html for the annotated source.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	$(GO) tool cover -html=cover.out -o cover.html
	@echo "wrote cover.out and cover.html"

placerd:
	$(GO) build -o bin/placerd ./cmd/placerd

# trace-demo places a small synthetic design with span tracing on and leaves
# a Chrome trace behind: open trace-demo.trace.json in chrome://tracing or
# https://ui.perfetto.dev to see the per-iteration phase breakdown.
trace-demo:
	$(GO) run ./cmd/placer -cells 500 -iters 150 -model ME -skip-dp \
		-trace trace-demo.trace.json -log-level info
	@echo "open trace-demo.trace.json in chrome://tracing or ui.perfetto.dev"

# fleet-demo boots a two-worker fleet (coordinator + two placerd nodes on a
# shared checkpoint root), drives a short placerload smoke through it, and
# merges the latency/affinity/steal report into $(BENCH) under "fleet_load".
# placerload merges into the file while `make bench` rewrites it, so run
# bench first when you want both in one file. Everything runs on localhost
# and tears down when the load finishes.
fleet-demo:
	$(GO) build -o bin/placercoord ./cmd/placercoord
	$(GO) build -o bin/placerd ./cmd/placerd
	$(GO) build -o bin/placerload ./cmd/placerload
	@mkdir -p /tmp/fleet-demo/a /tmp/fleet-demo/b
	@./bin/placercoord -addr 127.0.0.1:7878 & echo $$! > /tmp/fleet-demo/coord.pid; \
	sleep 0.3; \
	./bin/placerd -addr 127.0.0.1:8081 -coordinator http://127.0.0.1:7878 \
		-node-id demo-a -advertise http://127.0.0.1:8081 \
		-data-dir /tmp/fleet-demo/a -resume-root /tmp/fleet-demo & echo $$! > /tmp/fleet-demo/a.pid; \
	./bin/placerd -addr 127.0.0.1:8082 -coordinator http://127.0.0.1:7878 \
		-node-id demo-b -advertise http://127.0.0.1:8082 \
		-data-dir /tmp/fleet-demo/b -resume-root /tmp/fleet-demo & echo $$! > /tmp/fleet-demo/b.pid; \
	sleep 1.5; \
	./bin/placerload -coordinator http://127.0.0.1:7878 \
		-jobs 24 -concurrency 6 -designs 4 -cells 300 -iters 40 \
		-resubmit-ratio 0.5 -out $(BENCH); \
	rc=$$?; \
	kill $$(cat /tmp/fleet-demo/a.pid /tmp/fleet-demo/b.pid /tmp/fleet-demo/coord.pid) 2>/dev/null; \
	rm -rf /tmp/fleet-demo; \
	exit $$rc

# chaos-demo is the crash-recovery smoke: a journaled coordinator fronting
# two durable workers takes a placerload batch with fault injection on
# (-chaos) while the coordinator is kill -9'd mid-load and restarted on the
# same journal. The workers re-register through agent backoff, the journal
# replay re-adopts their jobs, and placerload -require-all-done exits
# non-zero if even one accepted job failed to reach "done" — the zero-loss
# assertion. The report lands in $(BENCH) under "fleet_load.chaos".
chaos-demo:
	$(GO) build -o bin/placercoord ./cmd/placercoord
	$(GO) build -o bin/placerd ./cmd/placerd
	$(GO) build -o bin/placerload ./cmd/placerload
	@rm -rf /tmp/chaos-demo && mkdir -p /tmp/chaos-demo/a /tmp/chaos-demo/b
	@./bin/placercoord -addr 127.0.0.1:7879 -journal /tmp/chaos-demo/journal \
		& echo $$! > /tmp/chaos-demo/coord.pid; \
	sleep 0.3; \
	./bin/placerd -addr 127.0.0.1:8083 -coordinator http://127.0.0.1:7879 \
		-node-id chaos-a -advertise http://127.0.0.1:8083 \
		-data-dir /tmp/chaos-demo/a -resume-root /tmp/chaos-demo & echo $$! > /tmp/chaos-demo/a.pid; \
	./bin/placerd -addr 127.0.0.1:8084 -coordinator http://127.0.0.1:7879 \
		-node-id chaos-b -advertise http://127.0.0.1:8084 \
		-data-dir /tmp/chaos-demo/b -resume-root /tmp/chaos-demo & echo $$! > /tmp/chaos-demo/b.pid; \
	sleep 1.5; \
	./bin/placerload -coordinator http://127.0.0.1:7879 \
		-jobs 12 -concurrency 4 -designs 12 -cells 500 -iters 800 \
		-chaos -chaos-seed 7 -require-all-done -timeout 5m -out $(BENCH) \
		& echo $$! > /tmp/chaos-demo/load.pid; \
	sleep 2; \
	echo "chaos-demo: kill -9 coordinator mid-load"; \
	kill -9 $$(cat /tmp/chaos-demo/coord.pid) 2>/dev/null; \
	sleep 2; \
	echo "chaos-demo: restarting coordinator on the same journal"; \
	./bin/placercoord -addr 127.0.0.1:7879 -journal /tmp/chaos-demo/journal \
		& echo $$! > /tmp/chaos-demo/coord.pid; \
	wait $$(cat /tmp/chaos-demo/load.pid); \
	rc=$$?; \
	kill $$(cat /tmp/chaos-demo/a.pid /tmp/chaos-demo/b.pid /tmp/chaos-demo/coord.pid) 2>/dev/null; \
	rm -rf /tmp/chaos-demo; \
	if [ $$rc -eq 0 ]; then echo "chaos-demo: zero job loss across coordinator kill"; \
	else echo "chaos-demo: FAILED (rc=$$rc)"; fi; \
	exit $$rc

# placertop-demo boots the same two-worker fleet, submits a couple of jobs,
# and prints one headless placertop frame (the -once snapshot mode) before
# tearing down — the quickest way to see the dashboard without a live
# deployment. For the interactive view, run the fleet yourself and
# `bin/placertop -addr http://127.0.0.1:7878`.
placertop-demo:
	$(GO) build -o bin/placercoord ./cmd/placercoord
	$(GO) build -o bin/placerd ./cmd/placerd
	$(GO) build -o bin/placertop ./cmd/placertop
	@mkdir -p /tmp/placertop-demo/a /tmp/placertop-demo/b
	@./bin/placercoord -addr 127.0.0.1:7878 & echo $$! > /tmp/placertop-demo/coord.pid; \
	sleep 0.3; \
	./bin/placerd -addr 127.0.0.1:8081 -coordinator http://127.0.0.1:7878 \
		-node-id demo-a -advertise http://127.0.0.1:8081 \
		-data-dir /tmp/placertop-demo/a & echo $$! > /tmp/placertop-demo/a.pid; \
	./bin/placerd -addr 127.0.0.1:8082 -coordinator http://127.0.0.1:7878 \
		-node-id demo-b -advertise http://127.0.0.1:8082 \
		-data-dir /tmp/placertop-demo/b & echo $$! > /tmp/placertop-demo/b.pid; \
	sleep 1.5; \
	for seed in 1 2 3; do \
		curl -s -X POST http://127.0.0.1:7878/v1/jobs -H 'X-Tenant: demo' -d '{"design":{"synth":{"cells":400,"seed":'$$seed'}},"model":"ME","placer":{"max_iters":200,"grid_x":32,"grid_y":32},"flow":{"gp_only":true}}' > /dev/null; \
	done; \
	sleep 2; \
	./bin/placertop -once -addr http://127.0.0.1:7878 -width 110 -height 30; \
	rc=$$?; \
	kill $$(cat /tmp/placertop-demo/a.pid /tmp/placertop-demo/b.pid /tmp/placertop-demo/coord.pid) 2>/dev/null; \
	rm -rf /tmp/placertop-demo; \
	exit $$rc

# golden re-renders the placertop golden frames after a deliberate layout
# change. Inspect the diff before committing: the goldens are the
# dashboard's bit-exact rendering contract.
golden:
	$(GO) test ./internal/placertop/ -run TestGoldenFrames -update
