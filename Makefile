# Developer entry points. `make check` is the pre-PR gate: formatting,
# vet, build, the reachability audit, full tests, race coverage of the whole module, the
# conformance grid (one runner, `nfrun -grid`: difftest, chaos-smoke and
# attack-smoke are selections of its axes), a bounded fuzz smoke over
# every native fuzz target, and the benchmark module's own vet + tests.

GO ?= go

# Per-target budget for fuzz-smoke; raise for a longer local campaign,
# e.g. `make fuzz-smoke FUZZTIME=2m`.
FUZZTIME ?= 10s

.PHONY: all check fmt vet build reach test race difftest fuzz-smoke bench bench-telemetry bench-trace bench-test chaos-smoke attack-smoke obs-smoke nfd-smoke

all: check

check: fmt vet build reach test race difftest fuzz-smoke chaos-smoke attack-smoke obs-smoke nfd-smoke bench-test

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Reachability audit (scripts/reach.sh): every function declared in a
# non-test file under internal/ is linked into one of the binaries a
# user runs — cmd/*, examples/* and bench, built with inlining off so
# no call site hides a function — or is listed in scripts/reach.allow.
# It proves that no product code is reachable from tests alone. A new
# function no binary links fails here: delete it, move it into its
# package's _test.go or export_test.go when only that package's tests
# call it, or add a line `<dir>.<Func> <reason>` to scripts/reach.allow
# naming the tests in other packages that need it. An allow-list entry
# that a binary links, or that no file declares any more, fails too.
reach:
	bash scripts/reach.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The conformance grid walks every NF in every supported flavour along
# the axes named by -grid. A failing axis prints `axis=<name> FAILED`
# ahead of its report, each violation names the case and the variant
# that diverged, and the exit is non-zero.
#
# Differential conformance: flavour against flavour and interpreter tier
# against tier over identical seeded traces, plus generated programs
# cross-checked between the production VM and the reference interpreter.
# 4000 packets matches the grid's defaults.
difftest:
	$(GO) run ./cmd/nfrun -grid flavour,tier,vm -packets 4000 -flows 256 -vm-trials 200

# Bounded native fuzzing: every Fuzz* target for FUZZTIME each, seeded
# from the committed corpora under testdata/fuzz/. A crash writes its
# reproducer into testdata and fails the build.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzVerifier$$' -fuzztime $(FUZZTIME) ./internal/ebpf/verifier/
	$(GO) test -run '^$$' -fuzz '^FuzzHashModel$$' -fuzztime $(FUZZTIME) ./internal/ebpf/maps/
	$(GO) test -run '^$$' -fuzz '^FuzzLRUHashModel$$' -fuzztime $(FUZZTIME) ./internal/ebpf/maps/
	$(GO) test -run '^$$' -fuzz '^FuzzArrayModel$$' -fuzztime $(FUZZTIME) ./internal/ebpf/maps/
	$(GO) test -run '^$$' -fuzz '^FuzzBucketHashModel$$' -fuzztime $(FUZZTIME) ./internal/ebpf/maps/
	$(GO) test -run '^$$' -fuzz '^FuzzPerCPUHashModel$$' -fuzztime $(FUZZTIME) ./internal/ebpf/maps/
	$(GO) test -run '^$$' -fuzz '^FuzzFastHash$$' -fuzztime $(FUZZTIME) ./internal/nhash/
	$(GO) test -run '^$$' -fuzz '^FuzzFusedOps$$' -fuzztime $(FUZZTIME) ./internal/nhash/
	$(GO) test -run '^$$' -fuzz '^FuzzBitops$$' -fuzztime $(FUZZTIME) ./internal/bitops/
	$(GO) test -run '^$$' -fuzz '^FuzzBitmapScan$$' -fuzztime $(FUZZTIME) ./internal/bitops/
	$(GO) test -run '^$$' -fuzz '^FuzzSIMDBytes$$' -fuzztime $(FUZZTIME) ./internal/simd/
	$(GO) test -run '^$$' -fuzz '^FuzzJITCrossCheck$$' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzCuckooImage$$' -fuzztime $(FUZZTIME) ./internal/nf/cuckooswitch/
	$(GO) test -run '^$$' -fuzz '^FuzzCuckooImage$$' -fuzztime $(FUZZTIME) ./internal/nf/cuckoofilter/
	$(GO) test -run '^$$' -fuzz '^FuzzCreateRequest$$' -fuzztime $(FUZZTIME) ./internal/nfd/
	$(GO) test -run '^$$' -fuzz '^FuzzIngestBody$$' -fuzztime $(FUZZTIME) ./internal/nfd/
	$(GO) test -run '^$$' -fuzz '^FuzzZipfSampler$$' -fuzztime $(FUZZTIME) ./internal/pktgen/

# 1500 packets is the smallest trace that exercises every fault site
# (rpool refills happen once per ~4096 draws).
chaos-smoke:
	$(GO) run ./cmd/nfrun -grid chaos -packets 1500 -flows 256

# Adversarial grid smoke: every NF/flavour under every scenario, guard
# off and on. 1500 packets keeps the shedder past its AutoBudget
# calibration window inside every attack burst.
attack-smoke:
	$(GO) run ./cmd/nfrun -grid attack -packets 1500 -flows 192

# Observability plane end-to-end: replay with the flight recorder and
# the HTTP server up, then self-scrape /metrics, /trace (filtered
# JSONL), /profile, and pprof, failing on any malformed payload. The
# second run is a guarded replay with -trace and no server: it must
# dump its recording as JSONL, at least one verdict event.
obs-smoke:
	$(GO) run ./cmd/nfrun -nf cmsketch -flavor enetstl -packets 20000 -serve 127.0.0.1:0 -trace -smoke
	@out="$$($(GO) run ./cmd/nfrun -nf conntrack -flavor ebpf -guard -trace -packets 2000)" && \
		n="$$(printf '%s\n' "$$out" | grep -c '"kind":"verdict"')"; \
		echo "obs smoke: guarded -trace dumped $${n:-0} verdict events"; [ "$${n:-0}" -gt 0 ]

# Daemon lifecycle end-to-end: start nfd on a loopback port, run the
# full module lifecycle over HTTP (create a guarded traced module, push
# a batch, probe the estimator and stats, scrape /metrics, delete,
# 404), then shut down cleanly. Exits non-zero on any step.
nfd-smoke:
	$(GO) run ./cmd/nfd -smoke

# Ungated developer aid (the in-package BenchmarkDispatch* micros, and
# BenchmarkCreate: ms/create and B/op of Registry.Create on each
# benchmark workload's create bodies); the committed performance
# numbers are bench/'s (BENCHMARK.json).
bench:
	$(GO) test -bench . -benchmem ./internal/ebpf/vm/
	$(GO) test -run '^$$' -bench BenchmarkCreate -benchmem ./internal/nfd/

bench-telemetry:
	$(GO) test -run XX -bench BenchmarkTelemetryOverhead -count 5 ./internal/ebpf/vm/

# Flight-recorder cost on the mixed dispatch micro: the disabled path
# must be within noise of the pre-trace interpreter (the <2% gate runs
# as TestTraceDisabledOverhead in the full test suite).
bench-trace:
	$(GO) test -run XX -bench BenchmarkTraceOverhead -count 5 ./internal/ebpf/vm/

# bench/ is a module of its own (replace enetstl => ../) that imports
# internal packages, so `go build ./...` and `go test ./...` at the root
# never compile it. This target does (about 5 s): a root-module API
# change that breaks the whole-stack benchmark fails here, before the
# pipeline runs bench/run.sh. Current map-core numbers are that
# benchmark's maps.* probes (bench/README.md).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...
