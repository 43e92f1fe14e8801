// The equivalence axes: flavour against flavour, tier against tier, and
// the production VM against the reference interpreter.

package difftest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/nf/bloom"
	"enetstl/internal/nf/vbf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// flavourAxis walks one benign stream per NF: flavours groups adjacent
// cells of a name as that NF's flavours.
func flavourAxis(r *Report, cfg nfcatalog.GridConfig) error {
	cfg.Scenarios = nil
	r.flavours(nfcatalog.Cells(cfg))
	return nil
}

// flavours replays every NF's flavours over clones of one stream and
// holds each to the first (Kernel).
func (r *Report) flavours(cells []nfcatalog.Cell) {
	var (
		ref      nfcatalog.Cell
		refRun   run
		refBuilt nfcatalog.Built
	)
	for _, c := range cells {
		at := site{AxisFlavour, c.String(), c.Flavor.String()}
		b, err := c.Build()
		if err != nil {
			r.violate(at, -1, "build", err.Error())
			continue
		}
		keys := c.Trace.FlowKeys
		got := r.replay(at, b.Inst, c.Trace.Clone())
		r.check(at, b, keys, got.admitted)
		if c.Name != ref.Name {
			// First flavour of the next NF: the reference the rest are
			// held to. The filters' verdict-stream oracles are applied to
			// it alone — the others are proven equal to it below.
			r.Cases++
			ref, refRun, refBuilt = c, got, b
			switch c.Name {
			case "bloom":
				r.checkBloomStream(at, c.Trace, got.verdicts)
			case "vbf":
				r.checkVBFStream(at, c.Trace, got.verdicts)
			}
			continue
		}
		// Estimator state is comparable only between flavours that draw
		// the same random source. The sampling sketches' native flavours
		// draw a seeded pool; their pure-eBPF flavour calls
		// bpf_get_prandom_u32 (PoolCap is 0 for it), lands on different
		// sketch state, and is held to its error bound alone. Its verdict
		// is a constant, so verdict equality still holds.
		est := b.Est
		if nfcatalog.PoolCap(c.Name, c.Flavor) != nfcatalog.PoolCap(c.Name, ref.Flavor) {
			est = nil
		}
		r.compare(at, ref.Flavor.String(), refRun, got, refBuilt.Est, est, keys)
	}
}

// tiers lists the interpreter tiers; the first is the reference.
var tiers = []vm.Tier{vm.TierPredecoded, vm.TierWire, vm.TierJIT}

func tierAxis(r *Report, cfg nfcatalog.GridConfig) error {
	r.tiers(nfcatalog.Cells(cfg))
	return nil
}

// tiers builds every VM-backed cell once per interpreter tier and
// demands exact agreement: the tiers execute the same program over the
// same helper tables and RNG streams, so any verdict or estimator
// difference is an interpreter bug, not noise. A jit block compiler that
// drops an instruction, mis-orders a fused pair or mischarges the budget
// shows up here.
func (r *Report) tiers(cells []nfcatalog.Cell) {
	for _, c := range cells {
		if c.Flavor == nf.Kernel {
			continue // native Go: no interpreter to vary
		}
		r.Cases++
		var (
			refRun run
			refEst func([]byte) uint32
		)
		for i, tier := range tiers {
			at := site{AxisTier, c.String(), tier.String()}
			b, err := c.Build()
			if err == nil && len(runtime.VMs(b.Inst)) == 0 {
				err = errors.New("flavour is not VM-backed")
			}
			if err != nil {
				r.violate(at, -1, "build", err.Error())
				break
			}
			for _, m := range runtime.VMs(b.Inst) {
				m.SetTier(tier)
			}
			got := r.replay(at, b.Inst, c.Trace.Clone())
			r.check(at, b, c.Trace.FlowKeys, got.admitted)
			if i == 0 {
				refRun, refEst = got, b.Est
				continue
			}
			r.compare(at, tiers[0].String(), refRun, got, refEst, b.Est, c.Trace.FlowKeys)
		}
	}
}

// vmCtx builds the deterministic 64-byte context every generated
// program runs over.
func vmCtx() []byte {
	ctx := make([]byte, 64)
	for i := range ctx {
		ctx[i] = byte(i*7 + 1)
	}
	return ctx
}

// vmAxis cross-checks cfg.VMTrials generated programs between the
// production VM's tiers and the reference interpreter. A program the
// verifier rejects is counted, not failed: Replays is what executed.
func vmAxis(r *Report, cfg nfcatalog.GridConfig) error {
	for seed := uint64(0); seed < uint64(cfg.VMTrials); seed++ {
		at := site{AxisVM, fmt.Sprintf("seed %d", seed), "refvm"}
		r.Cases++
		prog, err := GenProgram(seed)
		if err != nil {
			r.violate(at, -1, "build", err.Error())
			continue
		}
		switch err := CrossCheck(prog, vmCtx()); {
		case err == nil:
			r.Replays++
		case !errors.Is(err, verifier.ErrRejected):
			r.violate(at, -1, "vm", err.Error())
		}
	}
	return nil
}

// checkBloomStream asserts the filter's no-false-negative contract over
// the replayed verdict stream: once a flow has been inserted, every
// later test of that flow must return Member.
func (r *Report) checkBloomStream(at site, t *pktgen.Trace, verdicts []uint64) {
	inserted := make([]bool, len(t.FlowKeys))
	for p := range verdicts {
		f := t.FlowOf[p]
		r.Probes++
		switch binary.LittleEndian.Uint32(t.Packets[p][nf.OffOp:]) {
		case nf.OpUpdate:
			inserted[f] = true
		case nf.OpLookup:
			if inserted[f] && verdicts[p] != uint64(bloom.Member) {
				r.violate(at, p, "bound",
					fmt.Sprintf("bloom false negative: flow %d tested %d after insert", f, verdicts[p]))
				return
			}
		}
	}
}

// checkVBFStream asserts the vector filter's membership contract over
// the verdict stream: every packet queries its flow, which was inserted
// into set flow%VBFSets at construction.
func (r *Report) checkVBFStream(at site, t *pktgen.Trace, verdicts []uint64) {
	for p := range verdicts {
		set := int(t.FlowOf[p]) % nfcatalog.VBFSets
		r.Probes++
		mask := verdicts[p] - vbf.MatchBase
		if verdicts[p] < vbf.MatchBase || mask&(1<<uint(set)) == 0 {
			r.violate(at, p, "bound",
				fmt.Sprintf("vbf false negative: flow %d verdict %#x missing set %d", t.FlowOf[p], verdicts[p], set))
			return
		}
	}
}
