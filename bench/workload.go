package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/nfd"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

var workloadNames = []string{"ebpf_fig3", "enetstl_fig3", "conntrack_attack", "tenant_churn"}

// workloadWhy records why each workload exists: which layer owns its
// time, so which optimisation it shows and which it must not.
var workloadWhy = map[string]string{
	"ebpf_fig3":        "13 Fig. 3 NFs as eBPF bytecode: VM dispatch owns >85% of the time, so a tier change shows here and almost nowhere else",
	"enetstl_fig3":     "same traffic, eNetSTL flavour: 10-20x fewer insns, so kfunc bodies, trace generation and the replay loop each own a visible share",
	"conntrack_attack": "two guarded conntrack modules, resident-flow hits then churn and syn-flood: the only path through the LRU map core, the guard and 429s",
	"tenant_churn":     "create, 8 raw 256-packet batches, estimate, stats, delete per tenant: JSON+base64 ingest and module build dominate, NF work is under 30%",
}

const batchPackets = 4096

type opKind int

const (
	opCreate opKind = iota
	opPackets
	opEstimate
	opStats
	opMetrics
	opDelete
	numOpKinds
)

// op is one HTTP request of a workload.
type op struct {
	kind    opKind
	mod     int    // index into workload.modules (unused by opMetrics)
	body    []byte // opPackets: the TraceSpec JSON
	packets int    // opPackets: packets the body describes
	// mayShed marks a scenario batch to a guarded module: the only place
	// a 429 is a legal answer.
	mayShed bool
}

// moduleSpec is one tenant: the POST /modules body and what the
// benchmark needs to know about the module it creates.
type moduleSpec struct {
	name, flavor string
	body         []byte
	hasEstimator bool
	guarded      bool
}

// workload is a fixed, seed-derived request sequence. The measured unit
// is the round: every round sends exactly the same bytes.
type workload struct {
	name    string
	modules []moduleSpec
	// persistent modules are created in set-up and live to teardown;
	// otherwise the round itself creates and deletes them.
	persistent bool
	round      []op
	// warm is how many leading ops of round form one rotation, replayed
	// once inside set-up.
	warm int
	// tracedRounds sizes the traced pass: fixed work, so the counts it
	// yields repeat exactly for a given seed.
	tracedRounds int
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only static, marshalable inputs reach here
	}
	return b
}

func newModule(name, flavor string, opts runtime.Options, seedTrace runtime.TraceSpec) (moduleSpec, error) {
	fl, err := nf.ParseFlavor(flavor)
	if err != nil {
		return moduleSpec{}, err
	}
	// A throwaway build tells whether GET estimates answers 200 or 404.
	probe, err := nfcatalog.BuildFull(name, fl, pktgen.Generate(pktgen.Config{Flows: 8, Packets: 8, Seed: 1}))
	if err != nil {
		return moduleSpec{}, fmt.Errorf("%s/%s: %w", name, flavor, err)
	}
	_, guarded := opts.GuardConfig()
	return moduleSpec{
		name: name, flavor: flavor,
		body:         mustJSON(nfd.CreateRequest{Name: name, Flavor: flavor, Options: opts, Trace: seedTrace}),
		hasEstimator: probe.Est != nil,
		guarded:      guarded,
	}, nil
}

func specOp(mod int, spec runtime.TraceSpec, mayShed bool) op {
	return op{kind: opPackets, mod: mod, body: mustJSON(spec), packets: spec.Packets, mayShed: mayShed}
}

// buildWorkload generates every request body of the named workload from
// seed. quick shrinks a round to one rotation of small batches, for the
// test only.
func buildWorkload(name string, seed int64, quick bool) (*workload, error) {
	// Distinct, non-zero TraceSpec seeds (0 means "default" to the daemon).
	base := seed*1000 + 1
	rotations, packets := 8, batchPackets
	if quick {
		rotations, packets = 1, 1024
	}
	w := &workload{name: name, tracedRounds: 2}
	switch name {
	case "ebpf_fig3", "enetstl_fig3":
		flavor := "ebpf"
		if name == "enetstl_fig3" {
			flavor = "enetstl"
			w.tracedRounds = 3
		}
		w.persistent = true
		for _, n := range fig3NFs {
			// Tables are preloaded with the flows of the first rotation's
			// seed: 1 rotation in 8 looks up resident keys, 7 miss.
			m, err := newModule(n, flavor, runtime.Options{}, runtime.TraceSpec{Flows: packets, Seed: base})
			if err != nil {
				return nil, err
			}
			w.modules = append(w.modules, m)
		}
		for r := 0; r < rotations; r++ {
			for i := range w.modules {
				w.round = append(w.round, specOp(i,
					runtime.TraceSpec{Flows: packets, Packets: packets, Zipf: 1.1, Seed: base + int64(r)}, false))
			}
		}
		w.warm = len(w.modules)

	case "conntrack_attack":
		w.persistent = true
		w.tracedRounds = 12
		guarded := runtime.Options{Guard: &runtime.GuardOptions{Enabled: true}}
		for _, flavor := range []string{"ebpf", "kernel"} {
			m, err := newModule("conntrack", flavor, guarded, runtime.TraceSpec{Flows: 64, Seed: base})
			if err != nil {
				return nil, err
			}
			w.modules = append(w.modules, m)
		}
		for r := 0; r < rotations; r++ {
			for i := range w.modules {
				s := base + int64(r)
				w.round = append(w.round,
					// 64 flows fit the 128-entry LRU: lookups and in-place bumps.
					specOp(i, runtime.TraceSpec{Flows: 64, Packets: packets, Zipf: 1.1, Seed: base}, false),
					// Short-lived and spoofed flows: every new one inserts and evicts.
					specOp(i, runtime.TraceSpec{Flows: 1024, Packets: packets, Zipf: 1.1, Seed: s, Scenario: "churn"}, true),
					specOp(i, runtime.TraceSpec{Flows: packets, Packets: packets, Zipf: 1.1, Seed: s, Scenario: "syn-flood"}, true))
			}
		}
		w.warm = 3 * len(w.modules)

	case "tenant_churn":
		w.tracedRounds = 8
		const batches, rawPackets = 8, 256
		// Flight recorder on, vm.Stats off: stats triples the VM's time
		// (vm.stats_on_overhead_pct), which would turn this ingest-bound
		// workload into a third VM-bound one.
		opts := runtime.Options{Trace: &runtime.TraceOptions{Capacity: 4096, SampleRate: 0.05}}
		tenants := append(append([]string{}, fig3NFs...), "conntrack")
		for i, n := range tenants {
			flavor := "enetstl"
			if n == "conntrack" {
				flavor = "ebpf"
			}
			m, err := newModule(n, flavor, opts, runtime.TraceSpec{Flows: 1024, Seed: base})
			if err != nil {
				return nil, err
			}
			w.modules = append(w.modules, m)
			// The tenant's packets carry the NF's op mix, as a CLI would
			// have prepared them: raw ingest replays bytes verbatim.
			tr := pktgen.Generate(pktgen.Config{Flows: 1024, Packets: batches * rawPackets, ZipfS: 1.1, Seed: base})
			nfcatalog.PrepareTrace(n, tr)
			w.round = append(w.round, op{kind: opCreate, mod: i})
			for b := 0; b < batches; b++ {
				raw := make([]string, rawPackets)
				for p := range raw {
					raw[p] = base64.StdEncoding.EncodeToString(tr.Packets[b*rawPackets+p][:])
				}
				w.round = append(w.round, specOp(i, runtime.TraceSpec{Raw: raw, Packets: rawPackets}, false))
			}
			w.round = append(w.round,
				op{kind: opEstimate, mod: i}, op{kind: opStats, mod: i}, op{kind: opDelete, mod: i})
		}
		w.round = append(w.round, op{kind: opMetrics})
		w.warm = len(w.round)

	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}
