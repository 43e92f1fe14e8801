package main

import (
	"encoding/json"
	"fmt"
)

// metric declares one benchmark metric. Bound is the share of the parent
// commit's median an end-to-end metric may worsen by before a change
// counts as a regression; per-layer metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the daemon sees. Every time is built from
// per-request floors (run.go). On the 2-vCPU reference host their
// run-to-run spread is 1-5% while the host is quiet but reached 16-30%
// during a noisy quarter of an hour (README.md, "Steadiness"), so the
// times take the contract's widest bound; the live heap never spread
// beyond 0.3%.
var endToEnd = []metric{
	{"ns_per_pkt", "ns", "lower", 0.25},
	{"batch_p50_ms", "ms", "lower", 0.25},
	{"create_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
}

// fig3NFs are the 13 NFs of the paper's Fig. 3, in catalog order.
var fig3NFs = []string{
	"cuckooswitch", "cmsketch", "nitrosketch", "cuckoofilter", "bloom", "vbf",
	"eiffel", "timewheel", "edf", "tss", "heavykeeper", "spacesaving", "daryhash",
}

var (
	tiers    = []string{"wire", "predecoded", "jit"}
	mapSizes = []int{128, 65536}
)

// perLayer lists the single-layer metrics; the name prefix is the
// package that owns the time. README.md says which end-to-end metric
// each one should move, and on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	lo := func(name, unit string) metric { return metric{Name: name, Unit: unit, Better: "lower"} }
	m := []metric{
		// Traced pass of the workload being run.
		lo("nfd.http_self_ns_per_pkt", "ns"),
		lo("nfd.decode_ns_per_pkt", "ns"),
		lo("nfd.encode_ns_per_batch", "ns"),
		lo("runtime.build_ns_per_pkt", "ns"),
		lo("nfcatalog.prepare_ns_per_pkt", "ns"),
		lo("harness.replay_ns_per_pkt", "ns"),
		lo("harness.replay_self_ns_per_pkt", "ns"),
		lo("harness.replay_share", "ratio"),
		lo("vm.run_ns_per_pkt", "ns"),
		lo("vm.insns_per_pkt", "count"),
		lo("vm.ns_per_insn", "ns"),
		lo("vm.dispatch_share", "ratio"),
		lo("vm.helper_share", "ratio"),
		lo("vm.kfunc_share", "ratio"),
		lo("guard.shed_ratio", "ratio"),
		lo("guard.http_429_ratio", "ratio"),
		lo("bench.trace_overhead_pct", "%"),
		lo("bench.accounting_residual_pct", "%"),
		lo("bench.interference_pct", "%"),
		// Untraced rounds and control-plane requests of the same run.
		lo("nfd.batch_tail_ms", "ms"),
		{Name: "nfd.batch_tail_pct", Unit: "%", Better: "higher"},
		{Name: "nfd.batch_samples", Unit: "count", Better: "higher"},
		lo("nfd.allocs_per_pkt", "count"),
		lo("nfd.bytes_per_pkt", "B"),
		lo("nfd.create_ms", "ms"),
		lo("nfd.delete_ms", "ms"),
		lo("nfd.estimate_ms", "ms"),
		lo("obs.metrics_scrape_ms", "ms"),
		// Probes: direct calls into one layer, the same in every workload.
		lo("runtime.spec_build_ns_per_pkt", "ns"),
		lo("runtime.raw_build_ns_per_pkt", "ns"),
		lo("pktgen.generate_ns_per_pkt", "ns"),
		lo("pktgen.attack_ns_per_pkt", "ns"),
		lo("nfcatalog.build_ms.kernel", "ms"),
		lo("nfcatalog.build_ms.ebpf", "ms"),
		lo("nfcatalog.build_ms.enetstl", "ms"),
		lo("guard.charge_ns_per_pkt", "ns"),
		lo("vm.stats_on_overhead_pct", "%"),
		lo("trace.record_overhead_pct", "%"),
		lo("nhash.fast64_ns", "ns"),
		lo("nhash.hash_cnt_ns", "ns"),
		lo("simd.find_u32_ns", "ns"),
		lo("bitops.ffs_ns", "ns"),
		lo("listbuckets.push_pop_ns", "ns"),
		lo("memwrapper.alloc_free_ns", "ns"),
		lo("rpool.next_ns", "ns"),
		lo("maps.array_lookup_ns", "ns"),
		lo("maps.conntrack_hit_ns_per_pkt", "ns"),
		lo("maps.conntrack_churn_ns_per_pkt", "ns"),
		lo("nf.enetstl_over_ebpf_geomean", "ratio"),
		lo("nf.kernel_over_enetstl_geomean", "ratio"),
	}
	for _, t := range tiers {
		for _, fl := range []string{"ebpf", "enetstl"} {
			m = append(m, lo(fmt.Sprintf("vm.tier_%s_ns_per_pkt.%s", t, fl), "ns"))
		}
	}
	for _, op := range []string{"lru_hit", "lru_insert_evict", "hash_lookup_hit", "hash_lookup_miss", "hash_update"} {
		for _, n := range mapSizes {
			m = append(m, lo(fmt.Sprintf("maps.%s_ns.%d", op, n), "ns"))
		}
	}
	for _, name := range fig3NFs {
		for _, fl := range []string{"ebpf", "enetstl", "kernel"} {
			m = append(m, lo(fmt.Sprintf("nf.%s.%s_ns_per_pkt", name, fl), "ns"))
		}
	}
	return m
}

// manifest renders BENCHMARK.json from the declarations above, so the
// committed file and the program cannot drift (bench_test.go compares).
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, name := range workloadNames {
		wls = append(wls, wl{name, workloadWhy[name]})
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 15,
		Workloads:  wls,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(out, '\n')
}
