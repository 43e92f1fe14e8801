// Interpreter-tier differential: every VM-backed NF×flavour replayed
// under all three execution tiers (predecoded, wire, jit) on
// bit-identical traces. Unlike the flavour axis there is no estimate
// oracle and no metamorphic fallback — the tiers execute the same
// program over the same helper tables and RNG streams, so the oracle is
// exactness across the board: verdict-for-verdict, error parity, and
// estimator-state equality for every flow key. A jit block compiler
// that drops an instruction, mis-orders a fused pair, or mischarges the
// budget shows up here as a hard divergence.

package difftest

import (
	"fmt"

	"enetstl/internal/harness"
	"enetstl/internal/nfcatalog"
)

// RunInterpEquivalence builds every VM-backed NF×flavour under all
// three interpreter tiers and differentially replays them.
func RunInterpEquivalence(cfg Config) (*Report, error) {
	cases, err := nfcatalog.InterpDiffCases(nfcatalog.DiffConfig{
		Packets: cfg.Packets, Flows: cfg.Flows, Seed: cfg.Seed, ZipfS: cfg.ZipfS})
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	for _, c := range cases {
		runInterpCase(rep, c)
	}
	return rep, nil
}

// runInterpCase replays one NF×flavour's per-tier builds and demands
// exact agreement.
func runInterpCase(rep *Report, c nfcatalog.InterpDiffCase) {
	rep.Cases++
	rep.Instances += len(c.Insts)
	caseName := func(i int) string {
		return fmt.Sprintf("%s@%v", c.Name, c.Tiers[i])
	}

	for i := 1; i < len(c.Traces); i++ {
		if !tracesEqual(c.Traces[0], c.Traces[i]) {
			rep.diverge(Divergence{Case: caseName(i), Kind: "trace", Packet: -1,
				Detail: "per-tier trace clones diverged before replay"})
			return
		}
	}

	verdicts := make([][]uint64, len(c.Insts))
	errs := make([]error, len(c.Insts))
	for i, inst := range c.Insts {
		verdicts[i], errs[i] = harness.Verdicts(inst, c.Traces[i])
		rep.Packets += len(verdicts[i])
	}

	for i := 1; i < len(c.Insts); i++ {
		if (errs[0] == nil) != (errs[i] == nil) {
			rep.diverge(Divergence{Case: caseName(i), Kind: "error", Packet: len(verdicts[i]),
				Detail: fmt.Sprintf("error parity: %v=%v, %v=%v",
					c.Tiers[0], errs[0], c.Tiers[i], errs[i])})
		}
	}

	for i := 1; i < len(c.Insts); i++ {
		n := min(len(verdicts[0]), len(verdicts[i]))
		for p := 0; p < n; p++ {
			if verdicts[0][p] != verdicts[i][p] {
				rep.diverge(Divergence{Case: caseName(i), Kind: "verdict", Packet: p,
					Detail: fmt.Sprintf("%v=%d %v=%d", c.Tiers[0], verdicts[0][p],
						c.Tiers[i], verdicts[i][p])})
				break
			}
		}
	}

	// Estimator-state exactness for every flow key — strict even for
	// the sampling sketches (same build, same RNG draws, so the tiers
	// must land on identical sketch state).
	if c.Estimates[0] != nil {
		for f, key := range c.Traces[0].FlowKeys {
			base := c.Estimates[0](key[:])
			for i := 1; i < len(c.Insts); i++ {
				rep.Probes++
				if got := c.Estimates[i](key[:]); got != base {
					rep.diverge(Divergence{Case: caseName(i), Kind: "estimate", Packet: -1,
						Detail: fmt.Sprintf("flow %d: %v=%d %v=%d", f,
							c.Tiers[0], base, c.Tiers[i], got)})
					return
				}
			}
		}
	}
}
