# Pre-PR gate: everything CI would run. `make check` must be green
# before any change goes up for review. That includes `make lint` —
# cmd/geolint, the project's own static analyzers over ./cmd/... and
# ./internal/... (see the "Static analysis" section of README.md).

GO ?= go

.PHONY: check vet fmt lint lint-json lint-diff deadcode samebytes build perfbench-test test cores race race-full chaos metrics-verify longitudinal bench bench-compare fuzz profile

check: vet fmt lint build perfbench-test race metrics-verify

vet:
	$(GO) vet ./...

# gofmt -l prints nonconforming files; any output fails the gate.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# geolint mechanically enforces the engine's invariants (determinism,
# map-iteration order on output paths, context threading, stdlib-only
# imports, layering, slog conventions). Nonzero exit on any finding.
lint:
	$(GO) run ./cmd/geolint ./cmd/... ./internal/...

# lint-json emits the same findings as a JSON array for machine
# consumption — CI uploads geolint-findings.json as a build artifact so
# a red lint job carries its evidence. It writes the file, prints it and
# exits with geolint's status, so it fails when `make lint` does.
lint-json:
	$(GO) run ./cmd/geolint -json ./cmd/... ./internal/... >geolint-findings.json; \
	status=$$?; cat geolint-findings.json; exit $$status

# lint-diff narrows REPORTING to files changed since DIFF_REF (default
# origin/main); analyzers still run over whole packages so cross-file
# facts stay sound. Fast pre-pass for large trees.
DIFF_REF ?= origin/main
lint-diff:
	$(GO) run ./cmd/geolint -diff $(DIFF_REF) ./cmd/... ./internal/...

# deadcode lists, as file:line symbol, each top-level func in internal/
# that none of the binaries (cmd/*, examples/*, perfbench) links, and
# tees the list into deadcode.txt, which CI uploads beside the lint
# findings. It is a report, not a gate: it fails only when a binary does
# not build. See scripts/deadcode.sh for the method.
deadcode:
	sh scripts/deadcode.sh >deadcode.txt
	@cat deadcode.txt

# samebytes builds cmd/routergeo at BASE and in the working tree and
# compares their stdout over the flag sets the golden files do not cover
# (other seeds, -parallelism 1, the 4x and 16x worlds, -longitudinal),
# one line per set, and examples/detour's (SamplePaths) on one more; it
# fails if any differs. A change that declares an output change differs
# by design, so CI does not run it. See scripts/samebytes.sh.
samebytes:
	@if [ -z "$(BASE)" ]; then echo "usage: make samebytes BASE=<git ref>" >&2; exit 2; fi
	sh scripts/samebytes.sh $(BASE)

build:
	$(GO) build ./...

# perfbench is a module of its own, so the root `go build ./...` and
# `go test ./...` skip it: vet it and run its tests (TestWorkloadsSmoke
# and the stamp and metric-table checks) in place.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

# cores re-runs the packages whose README guarantees depend on the core
# count — serial ≡ parallel byte identity (par, core, ark, experiments),
# the zero-alloc /v2/lookup steady state and the full stack's bound of
# an eighth of the answer in bytes allocated per bulk request, which no
# copy of the answer fits (httpapi) — at 1, 2 and 4 procs, so a
# single-core runner cannot hide a multi-core failure.
CORES_PKGS = ./internal/par/ ./internal/core/ ./internal/ark/ ./internal/experiments/ ./internal/geodb/httpapi/

cores:
	$(GO) test -count=1 -cpu 1,2,4 $(CORES_PKGS)

# The concurrency-heavy packages race first and fast — obs (atomics and
# locks), core (the parallel measurement engine) and ipx (the shared
# lookup index) — then everything else exactly once.
RACE_FIRST = ./internal/obs/... ./internal/core/... ./internal/ipx/...

race:
	$(GO) test -race $(RACE_FIRST)
	$(GO) test -race $$($(GO) list ./... | grep -v -E '^routergeo/internal/(obs|core|ipx)$$')

# race-full is the nightly sweep: EVERY package under -race with a
# doubled count, so the dynamic detector cross-covers what the static
# concurrency analyzers (atomicmix, lockbalance, gorohygiene) prove
# per-function — interleavings and aliasing are exactly what a
# per-function CFG cannot see.
race-full:
	$(GO) test -race -count 2 ./...

# Chaos acceptance suite: the full remote-evaluation sweep under every
# builtin fault policy (internal/faults) plus the fault injector's own
# tests, under -race. Byte-identical output to the no-fault run is the
# bar — see chaos_test.go.
chaos:
	$(GO) test -race -run 'Chaos' -v .
	$(GO) test -race ./internal/faults/ ./internal/geodb/httpapi/

# Observability acceptance suite: boots the real geoserve binary against
# a CSV fixture, scrapes GET /metrics, and validates the exposition with
# the in-repo parser (internal/obs/promlint.LintExposition), then watches
# GET /v2/events live through a sweep, a hot reload and a breaker trip —
# see metrics_verify_test.go.
metrics-verify:
	$(GO) test -race -run 'MetricsVerify' -v .

# Longitudinal acceptance suite: publishes a 3-epoch snapshot series
# (byte-identical on republish), serves it from the snapshot archive and
# proves /v2/lookup?asof= answers match direct snapshot loads byte for
# byte, and checks the drift sweep's table is byte-identical between
# serial and parallel runs and across same-seed pipeline rebuilds — see
# longitudinal_accept_test.go.
longitudinal:
	$(GO) test -run 'Longitudinal' -v .

# Measurement-engine benchmarks: sweep throughput serial vs parallel,
# the lookup index and ECDF machinery under it, and the server's
# /v2/lookup hot path (whose zero-alloc steady state the alloc gate
# protects). Teed into BENCH_core.json, the committed baseline
# bench-compare gates against.
BENCH_PATTERN = Coverage|Accuracy|Consistency|Lookup|ECDF
BENCH_PKGS = ./internal/core/... ./internal/ipx/... ./internal/stats/... ./internal/geodb/httpapi/

# Snapshot benchmarks: write/decode/open throughput, lookup latency
# heap vs memory-mapped, and the epoch-diff engine. The /v2 time-travel
# lookup (archive scan + asof parse on the batch hot path) rides in the
# same BENCH_snap.json via its own pattern, since its benchmark lives in
# the httpapi package but gates the snapshot-archive feature.
SNAP_BENCH_PATTERN = Write|Decode|Open|Lookup|Diff
SNAP_BENCH_PKGS = ./internal/geodb/snapshot/...
ASOF_BENCH_PATTERN = V2AsOf
ASOF_BENCH_PKGS = ./internal/geodb/httpapi/

# Observability benchmarks: the Prometheus render cost per scrape and
# the event-bus publish cost on the lookup/reload hot path (idle,
# stalled-subscriber and draining-subscriber cases). Teed into
# BENCH_obs.json, the committed baseline bench-compare gates against.
OBS_BENCH_PATTERN = PromRender|EventPublish
OBS_BENCH_PKGS = ./internal/obs/

bench:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -run ^$$ $(BENCH_PKGS) | tee BENCH_core.json
	$(GO) test -bench '$(SNAP_BENCH_PATTERN)' -benchmem -run ^$$ $(SNAP_BENCH_PKGS) | tee BENCH_snap.json
	$(GO) test -bench '$(ASOF_BENCH_PATTERN)' -benchmem -run ^$$ $(ASOF_BENCH_PKGS) | tee -a BENCH_snap.json
	$(GO) test -bench '$(OBS_BENCH_PATTERN)' -benchmem -run ^$$ $(OBS_BENCH_PKGS) | tee BENCH_obs.json

# bench-compare re-runs the engine benchmarks and fails on any ns/op
# regression past the threshold against the committed baseline. The
# core set also arms the memory gate: allocs/op or B/op growing past
# the alloc threshold — or a zero-alloc benchmark (the /v2/lookup hot
# path) starting to allocate at all — fails the gate. The alloc ratio
# is deliberately a gross-leak backstop, not a tight bound: pool
# recycling makes the worker-variant B/op spiky (a GC-emptied
# sync.Pool re-allocates a 32 KB scratch once in a hundred iterations,
# a ~6x blip on a 1.5 KB/op benchmark), and the guarantee that
# matters — the /v2/lookup zero-alloc steady state — fires at any
# threshold. CI's smoke run shortens BENCH_TIME and loosens the ns knob
# for shared-runner noise (see ci.yml); BENCH_TIME stays a duration
# there, because a handful of fixed iterations of a nanosecond-scale
# lookup times the benchmark loop rather than the lookup.
BENCH_TIME ?= 1s
NS_THRESHOLD ?= 1.30
ALLOC_THRESHOLD ?= 10.0

bench-compare:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -benchmem -run ^$$ $(BENCH_PKGS) | tee BENCH_core.new.json
	$(GO) run ./cmd/benchcompare -old BENCH_core.json -new BENCH_core.new.json -threshold $(NS_THRESHOLD) -alloc-threshold $(ALLOC_THRESHOLD)
	$(GO) test -bench '$(SNAP_BENCH_PATTERN)' -benchtime $(BENCH_TIME) -benchmem -run ^$$ $(SNAP_BENCH_PKGS) | tee BENCH_snap.new.json
	$(GO) test -bench '$(ASOF_BENCH_PATTERN)' -benchtime $(BENCH_TIME) -benchmem -run ^$$ $(ASOF_BENCH_PKGS) | tee -a BENCH_snap.new.json
	$(GO) run ./cmd/benchcompare -old BENCH_snap.json -new BENCH_snap.new.json -threshold $(NS_THRESHOLD)
	$(GO) test -bench '$(OBS_BENCH_PATTERN)' -benchtime $(BENCH_TIME) -benchmem -run ^$$ $(OBS_BENCH_PKGS) | tee BENCH_obs.new.json
	$(GO) run ./cmd/benchcompare -old BENCH_obs.json -new BENCH_obs.new.json -threshold $(NS_THRESHOLD)

# fuzz runs every fuzz target in the module for FUZZTIME each — the
# smoke CI runs. -fuzz takes one target per run, so each line names one.
# The equivalence targets pin a fast path to its reference; the parser
# targets (ipx addresses and prefixes, hostname decoding, the snapshot
# decoder, the CSV reader) must reject any input without panicking. The
# corpus seeds live in the packages; findings land in their
# testdata/fuzz.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run ^$$ -fuzz '^FuzzParseAddr$$' -fuzztime $(FUZZTIME) ./internal/ipx/
	$(GO) test -run ^$$ -fuzz '^FuzzParsePrefix$$' -fuzztime $(FUZZTIME) ./internal/ipx/
	$(GO) test -run ^$$ -fuzz '^FuzzFlatIndexEquivalence$$' -fuzztime $(FUZZTIME) ./internal/ipx/
	$(GO) test -run ^$$ -fuzz '^FuzzFindBatchEquivalence$$' -fuzztime $(FUZZTIME) ./internal/ipx/
	$(GO) test -run ^$$ -fuzz '^FuzzNearestRouterEquivalence$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -run ^$$ -fuzz '^FuzzNearestProviderEquivalence$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -run ^$$ -fuzz '^FuzzBuildTreeEquivalence$$' -fuzztime $(FUZZTIME) ./internal/traceroute/
	$(GO) test -run ^$$ -fuzz '^FuzzBuildMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/geodb/
	$(GO) test -run ^$$ -fuzz '^FuzzV2LookupDecode$$' -fuzztime $(FUZZTIME) ./internal/geodb/httpapi/
	$(GO) test -run ^$$ -fuzz '^FuzzKeyedRandMatchesMathRand$$' -fuzztime $(FUZZTIME) ./internal/vendors/
	$(GO) test -run ^$$ -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/hints/
	$(GO) test -run ^$$ -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/geodb/snapshot/
	$(GO) test -run ^$$ -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/geodb/dbcsv/

# profile captures pprof profiles of a whole default run: the
# environment build (world, Ark sweep, Atlas fleets, ground truth and
# vendor databases, about 98% of the wall time) and every paper
# artifact.
# CPU covers the whole run, heap is sampled at exit. Inspect with
# `go tool pprof cpu.pprof` (`top`, `list`, `web`).
profile:
	$(GO) run ./cmd/routergeo -cpuprofile cpu.pprof -memprofile mem.pprof
