# Developer entry points. `make check` is the pre-PR gate: formatting,
# vet, build, the execution audit, full tests, race coverage of the
# whole module, the conformance grid (a test, TestGrid in
# internal/difftest: difftest, chaos-smoke and attack-smoke each run its
# rows), a bounded fuzz smoke over every native fuzz target, the
# observability, daemon, paper-experiment and example smokes, and the
# benchmark module's own vet + tests.

GO ?= go

# Per-target budget for fuzz-smoke; raise for a longer local campaign,
# e.g. `make fuzz-smoke FUZZTIME=2m`.
FUZZTIME ?= 10s

.PHONY: all check fmt vet build cover test race difftest fuzz-smoke bench bench-telemetry bench-trace bench-test chaos-smoke attack-smoke obs-smoke nfd-smoke paper-smoke examples-smoke

all: check

check: fmt vet build cover test race difftest fuzz-smoke chaos-smoke attack-smoke obs-smoke nfd-smoke paper-smoke examples-smoke bench-test

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Execution audit (scripts/cover.sh): every function declared in a
# non-test file under internal/ executes at least one statement in a
# user run, or scripts/cover.allow excuses it. The run set is this
# Makefile's own smoke invocations of the user binaries (obs-smoke,
# nfd-smoke, paper-smoke, examples-smoke and bench-test), re-run with
# coverage counters on, so a function only tests reach, or that a
# binary links but no target runs, fails here: delete it, move it into
# its package's _test.go or export_test.go when only that package's
# tests call it, exercise it from a make target, or excuse it in
# scripts/cover.allow (rule classes: String/Error/Unwrap methods, error
# constructors, and test-only packages such as the conformance grid,
# which no non-test file may import; named entries for functions tests
# in other packages need, with those tests named). A named entry that
# executes, or that no file declares any more, fails too. About 20 s
# with a warm build cache.
cover:
	bash scripts/cover.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The conformance grid walks every NF in every supported flavour along
# the axes of one TestGrid row (internal/difftest/grid_test.go, which
# states each row's sizes). A row prints its axis reports; a failing
# axis prints `axis=<name> FAILED` ahead of its report, each violation
# names the case and the variant that diverged, and the test fails.
#
# Differential conformance: flavour against flavour and interpreter tier
# against tier over identical seeded traces (4000 packets, 256 flows),
# plus 200 generated programs cross-checked between the production VM
# and the reference interpreter; then the flavour axis at 9000 flows,
# past both cuckoo tables' slots, so their preloads walk their kick
# chains and saturate, and every flavour must still agree.
difftest:
	$(GO) test -v -run '^TestGrid$$/^equivalence' ./internal/difftest/

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

# Every NF/flavour and composed app under every fault schedule, at 1500
# packets, the smallest trace that exercises every fault site.
chaos-smoke:
	$(GO) test -v -run '^TestGrid$$/^chaos$$' ./internal/difftest/

# Adversarial grid smoke: every NF/flavour under every scenario, guard
# off and on, at 1500 packets over 192 flows.
attack-smoke:
	$(GO) test -v -run '^TestGrid$$/^attack$$' ./internal/difftest/

# Observability plane end-to-end: replay with the flight recorder and
# the HTTP server up, then self-scrape /metrics, /trace (filtered
# JSONL), /profile, and pprof, failing on any malformed payload or on a
# scraped vm_run_cnt that is not the run count of the stats nfrun
# attached. The second run does the same sharded, where the per-shard
# stats are merged once. The third is a guarded replay with -trace and
# no server: it must dump its recording as JSONL, at least one verdict
# event. The fourth profiles a sharded per-CPU replay: it must print an
# attribution report with instructions counted; the fifth profiles a
# Kernel-flavour replay, which is metered (run time, no instructions).
# The sixth and seventh replay over per-CPU maps and must print the
# merge-on-read views: conntrack's flow table across its private
# copies, and cmsketch's estimate; the eighth sums a Kernel-flavour
# cmsketch's per-shard estimates, which must not undercount the flow.
# The ninth disassembles an eBPF program. The tenth replays a
# hash-collision attack trace into a guarded conntrack, which must shed
# part of it; the last builds each remaining NF with guard wiring of its
# own (heavykeeper, nitrosketch) and skiplist behind the guard, each of
# which must print the guard's accounting.
obs-smoke:
	$(GO) run ./cmd/nfrun -nf cmsketch -flavor enetstl -packets 20000 -serve 127.0.0.1:0 -trace -smoke
	$(GO) run ./cmd/nfrun -nf cmsketch -flavor enetstl -shards 2 -packets 4000 -serve 127.0.0.1:0 -trace -smoke
	@out="$$($(GO) run ./cmd/nfrun -nf conntrack -flavor ebpf -guard -trace -packets 2000)" && \
		n="$$(printf '%s\n' "$$out" | grep -c '"kind":"verdict"')"; \
		echo "obs smoke: guarded -trace dumped $${n:-0} verdict events"; [ "$${n:-0}" -gt 0 ]
	@out="$$($(GO) run ./cmd/nfrun -nf cmsketch -flavor enetstl -shards 2 -percpu -packets 4000 -profile)" && \
		printf '%s\n' "$$out" | grep -q '^cmsketch/eNetSTL: 4000 packets, [1-9][0-9]* insns' && \
		echo "obs smoke: sharded per-CPU -profile printed a report" || { printf '%s\n' "$$out"; exit 1; }
	@out="$$($(GO) run ./cmd/nfrun -nf cmsketch -flavor kernel -packets 2000 -profile)" && \
		printf '%s\n' "$$out" | grep -q '^cmsketch/Kernel: 2000 packets, 0 insns, [1-9][0-9]* ns total' && \
		echo "obs smoke: Kernel-flavour -profile printed a metered report" || { printf '%s\n' "$$out"; exit 1; }
	@out="$$($(GO) run ./cmd/nfrun -nf conntrack -flavor ebpf -shards 2 -percpu -packets 4000 -trials 1)" && \
		printf '%s\n' "$$out" | grep -q '^percpu: 2 private copies, [1-9][0-9]* flows live after merge' && \
		echo "obs smoke: per-CPU conntrack merged its flow table" || { printf '%s\n' "$$out"; exit 1; }
	@out="$$($(GO) run ./cmd/nfrun -nf cmsketch -flavor enetstl -shards 2 -percpu -packets 4000 -trials 1)" && \
		printf '%s\n' "$$out" | grep -q '^estimate: flow 0 [1-9][0-9]* packets' && \
		echo "obs smoke: per-CPU cmsketch answered a merged estimate" || { printf '%s\n' "$$out"; exit 1; }
	@out="$$($(GO) run ./cmd/nfrun -nf cmsketch -flavor kernel -shards 2 -packets 4000 -trials 1)" && \
		printf '%s\n' "$$out" | awk '/^estimate: flow 0 / { sub(/\(/, "", $$6); ok = $$4 + 0 >= $$6 + 0 } END { exit !ok }' && \
		echo "obs smoke: Kernel-flavour cmsketch summed its shards' estimates" || { printf '%s\n' "$$out"; exit 1; }
	@out="$$($(GO) run ./cmd/nfrun -nf cmsketch -flavor ebpf -disasm)" && \
		printf '%s\n' "$$out" | grep -q '^cmsketch (eBPF): [1-9][0-9]* instructions' && \
		echo "obs smoke: -disasm listed the eBPF program" || { printf '%s\n' "$$out"; exit 1; }
	@out="$$($(GO) run ./cmd/nfrun -nf conntrack -flavor ebpf -guard -scenario hash-collision -packets 2000)" && \
		printf '%s\n' "$$out" | grep -q '^guard: .* shed=[1-9]' && \
		echo "obs smoke: guarded conntrack shed part of a hash-collision attack" || { printf '%s\n' "$$out"; exit 1; }
	@for n in heavykeeper nitrosketch skiplist; do \
		out="$$($(GO) run ./cmd/nfrun -nf $$n -flavor enetstl -guard -packets 2000)" && \
		printf '%s\n' "$$out" | grep -q '^guard: budget=[1-9]' || { printf '%s\n' "$$out"; exit 1; }; \
	done; echo "obs smoke: guarded heavykeeper, nitrosketch and skiplist replays accounted"

# Daemon lifecycle end-to-end: start nfd on a loopback port, run the
# full module lifecycle over HTTP (create a guarded traced module, push
# a batch, probe the estimator, create, feed and probe a sharded
# per-CPU module, create one seeded from an attack scenario, read the
# index and the module list, stats and /profile, scrape /metrics,
# delete, 404), then shut down cleanly. Exits non-zero on any step.
# Then the options body nfrun -print-options prints (the body a create
# request carries) must configure an nfrun replay through -options.
nfd-smoke:
	$(GO) run ./cmd/nfd -smoke
	@opts="$$($(GO) run ./cmd/nfrun -nf cmsketch -flavor enetstl -shards 2 -stats -print-options)" && \
		$(GO) run ./cmd/nfrun -nf cmsketch -flavor enetstl -options "$$opts" -packets 2000 -trials 1 >/dev/null && \
		echo "nfd smoke: nfrun -print-options round-trips through -options"

# The paper's experiments end to end at a size that runs in seconds:
# every experiment enetstl-bench knows, one trial of 2000 packets each.
paper-smoke:
	$(GO) run ./cmd/enetstl-bench -packets 2000 -trials 1 >/dev/null

# Every example program and the trace generator run to completion.
examples-smoke:
	$(GO) run ./examples/quickstart >/dev/null
	$(GO) run ./examples/loadbalancer >/dev/null
	$(GO) run ./examples/sketchmonitor >/dev/null
	$(GO) run ./examples/trafficshaper >/dev/null
	$(GO) run ./cmd/pktgen -packets 20000 -flows 256 -top 3 >/dev/null

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
