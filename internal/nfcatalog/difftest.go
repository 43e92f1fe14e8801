// Differential-case construction: every registered NF built in every
// flavour it supports, each flavour over its own clone of one canonical
// trace, plus the estimator probes and the equivalence contract the
// difftest harness checks. Keeping this next to the chaos wiring means
// "every dual-flavour case" is defined once, here.

package nfcatalog

import (
	"fmt"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// DiffOracle classifies the equivalence contract between an NF's
// flavours.
type DiffOracle int

const (
	// OracleExact: all flavours must agree verdict-for-verdict and
	// estimator-for-estimator — the structures are hash-deterministic
	// and share seeds bit-for-bit across emitters.
	OracleExact DiffOracle = iota
	// OracleEstimate: Kernel and eNetSTL are bit-identical (identically
	// seeded native randomness pools), but the pure-eBPF flavour draws
	// from the VM's bpf_get_prandom_u32 stream, so its sketch state is
	// checked against metamorphic error bounds instead of exact equality.
	OracleEstimate
)

// DiffCase is one NF across all supported flavours, ready for
// differential replay.
type DiffCase struct {
	Name   string
	Oracle DiffOracle

	Flavors []nf.Flavor
	Insts   []nf.Instance
	// Traces holds one clone of the canonical trace per instance; the
	// constructors mutate traces (op mixes), deterministically, so the
	// clones stay bit-identical — the harness asserts as much.
	Traces []*pktgen.Trace
	// Estimates[i] probes instance i's post-replay state (sketch and
	// filter NFs); nil for NFs whose verdicts carry the whole signal.
	Estimates []func(key []byte) uint32
}

// DiffConfig shapes the differential case set.
type DiffConfig struct {
	Packets int     // trace length (default 4000)
	Flows   int     // distinct flows (default 256)
	Seed    int64   // trace seed (default 1)
	ZipfS   float64 // flow skew (default 1.1)
}

func (c DiffConfig) norm() DiffConfig {
	if c.Packets <= 0 {
		c.Packets = 4000
	}
	if c.Flows <= 0 {
		c.Flows = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	return c
}

// SupportedFlavors lists the flavours an NF name can be built in.
func SupportedFlavors(name string) []nf.Flavor {
	out := make([]nf.Flavor, 0, 3)
	for _, fl := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		if name == "skiplist" && fl == nf.EBPF {
			continue // not implementable in pure eBPF (paper P1)
		}
		if name == "conntrack" && fl == nf.ENetSTL {
			continue // pure maps+helpers NF; no eNetSTL flavour
		}
		out = append(out, fl)
	}
	return out
}

// diffOracle returns the equivalence contract for an NF name. Only the
// sampling sketches diverge: their eBPF flavour replaces the seeded
// native randomness pool with the VM helper RNG.
func diffOracle(name string) DiffOracle {
	switch name {
	case "nitrosketch", "heavykeeper":
		return OracleEstimate
	}
	return OracleExact
}

// InterpDiffCase is one VM-backed NF×flavour built once per interpreter
// tier over bit-identical trace clones — the execution-tier conformance
// axis, orthogonal to the flavour axis (DiffCase). The contract is exact
// for every NF, sampling sketches included: the tiers execute the same
// program over the same helper tables and RNG streams, so any verdict
// or estimator difference is an interpreter bug, not noise.
type InterpDiffCase struct {
	Name      string // "cmsketch/ebpf"
	Tiers     []vm.Tier
	Insts     []nf.Instance
	Traces    []*pktgen.Trace
	Estimates []func(key []byte) uint32
}

// InterpDiffCases builds every registered NF in every VM-backed flavour
// three times — once per interpreter tier (predecoded, wire, jit) —
// each build on its own clone of the same canonical trace, with the
// tier pinned on the instance's VM. The Kernel flavour runs native Go
// with no interpreter to vary, so it is excluded.
func InterpDiffCases(cfg DiffConfig) ([]InterpDiffCase, error) {
	cfg = cfg.norm()
	var cases []InterpDiffCase
	for _, name := range Names() {
		canon := pktgen.Generate(pktgen.Config{
			Flows: cfg.Flows, Packets: cfg.Packets, ZipfS: cfg.ZipfS, Seed: cfg.Seed})
		for _, fl := range SupportedFlavors(name) {
			if fl == nf.Kernel {
				continue
			}
			c := InterpDiffCase{Name: fmt.Sprintf("%s/%v", name, fl)}
			for _, tier := range []vm.Tier{vm.TierPredecoded, vm.TierWire, vm.TierJIT} {
				trace := canon.Clone()
				b, err := BuildFull(name, fl, trace)
				if err != nil {
					return nil, fmt.Errorf("interp diff case %s/%v/%v: %w", name, fl, tier, err)
				}
				v, ok := b.Inst.(interface{ VM() *vm.VM })
				if !ok || v.VM() == nil {
					return nil, fmt.Errorf("interp diff case %s/%v: flavour is not VM-backed", name, fl)
				}
				v.VM().SetTier(tier)
				c.Tiers = append(c.Tiers, tier)
				c.Insts = append(c.Insts, b.Inst)
				c.Traces = append(c.Traces, trace)
				c.Estimates = append(c.Estimates, b.Est)
			}
			cases = append(cases, c)
		}
	}
	return cases, nil
}

// DiffCases builds every registered NF in all its supported flavours
// over clones of per-NF canonical traces.
func DiffCases(cfg DiffConfig) ([]DiffCase, error) {
	cfg = cfg.norm()
	var cases []DiffCase
	for _, name := range Names() {
		canon := pktgen.Generate(pktgen.Config{
			Flows: cfg.Flows, Packets: cfg.Packets, ZipfS: cfg.ZipfS, Seed: cfg.Seed})
		c := DiffCase{Name: name, Oracle: diffOracle(name)}
		for _, fl := range SupportedFlavors(name) {
			trace := canon.Clone()
			b, err := BuildFull(name, fl, trace)
			if err != nil {
				return nil, fmt.Errorf("diff case %s/%v: %w", name, fl, err)
			}
			c.Flavors = append(c.Flavors, fl)
			c.Insts = append(c.Insts, b.Inst)
			c.Traces = append(c.Traces, trace)
			c.Estimates = append(c.Estimates, b.Est)
		}
		cases = append(cases, c)
	}
	return cases, nil
}
