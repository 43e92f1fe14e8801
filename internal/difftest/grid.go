// Package difftest is the conformance subsystem: one grid — every
// registered NF in every flavour it supports, enumerated once by
// nfcatalog.Cells — walked along several axes, each holding the replay
// to a contract:
//
//   - flavour: the flavours of an NF compute the same function. Identical
//     seeded streams, verdict-for-verdict equality against the Kernel
//     flavour, estimator equality for every flow (except where a flavour
//     draws a different random source — see flavourAxis), and every
//     estimator inside its error bound against ground-truth flow counts.
//   - tier: the interpreter tiers (predecoded, wire, jit) execute the
//     same program identically. Exactness across the board, sampling
//     sketches included: same build, same RNG draws.
//   - chaos: under every fault schedule the datapath degrades, it never
//     breaks (chaos.go).
//   - attack: under every adversarial scenario, bare and behind the
//     overload guard, the same holds, estimator bounds hold over the
//     admitted substream, and the guard never loosens them (attack.go).
//   - vm: generated verifier-valid programs run identically on the
//     production VM's tiers and the naive reference interpreter
//     (refvm.go, gen.go), with golden execution traces for a fixed
//     corpus.
//
// Every axis is a thin loop over three shared pieces in this file. One
// replay: a shielded, arrival-clocked, per-packet drive that enforces
// the robustness contract the runtime promises the datapath on every
// axis — no panic escapes Process (VM panics become ErrRuntimeFault; the
// shield additionally covers native flavours), Process returns no error,
// the verdict is never XDP_ABORTED (faults and sheds must degrade to
// drops or misses, not aborts), spin locks are balanced after every
// packet — and returns the verdict vector plus the per-flow counts of
// packets that reached the NF. One check: structural invariants and the
// NF's estimator bound over whatever ground truth the axis has. One
// compare: two replays of the same stream against each other. Breaches
// land in one Report as Violations that name the axis, the case and the
// variant that diverged.
//
// This is the userspace analogue of running an XDP program under the
// kernel's fail_function fault attributes with a BPF exception handler
// watching for aborts, next to a differential test of its JIT.
//
// Native fuzz targets for maps, verifier, nhash and bitops live in the
// subject packages, seeded from committed corpora.
package difftest

import (
	"fmt"
	"hash/fnv"
	"strings"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/faultinject"
	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
)

// The axes, in the order `nfrun -grid` and `make check` run them.
const (
	AxisFlavour = "flavour"
	AxisTier    = "tier"
	AxisVM      = "vm"
	AxisChaos   = "chaos"
	AxisAttack  = "attack"
)

var axes = []struct {
	name string
	run  func(*Report, nfcatalog.GridConfig) error
}{
	{AxisFlavour, flavourAxis},
	{AxisTier, tierAxis},
	{AxisVM, vmAxis},
	{AxisChaos, chaosAxis},
	{AxisAttack, attackAxis},
}

// Axes lists the axis names Run accepts.
func Axes() []string {
	out := make([]string, len(axes))
	for i, a := range axes {
		out[i] = a.name
	}
	return out
}

// Run walks the grid cfg describes along one axis. The error is for a
// request that names no axis or no schedule; contract breaches are in
// the Report.
func Run(axis string, cfg nfcatalog.GridConfig) (*Report, error) {
	for _, a := range axes {
		if a.name == axis {
			r := &Report{Axis: axis}
			if err := a.run(r, cfg.Norm()); err != nil {
				return nil, err
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("difftest: unknown axis %q (%s)", axis, strings.Join(Axes(), "|"))
}

// Violation is one contract breach, named by where in the grid it was
// found.
type Violation struct {
	Axis    string
	Case    string // NF/flavour; "seed N" on the vm axis
	Variant string // what the axis varies: flavour, tier, schedule, scenario/arm
	Packet  int    // -1 for post-run checks
	Kind    string // build | trace | panic | error | verdict | lock | invariant | bound | bound-compare | estimate | vm
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("axis=%s case=%s variant=%s pkt=%d %s: %s",
		v.Axis, v.Case, v.Variant, v.Packet, v.Kind, v.Detail)
}

// maxViolations bounds the stored breaches; Total keeps the true count.
const maxViolations = 100

// Report aggregates one axis run.
type Report struct {
	Axis string
	// Cases counts what the axis compares: NFs on the flavour axis,
	// NF×flavour cells on tier, chaos and attack, generated programs on vm.
	Cases int
	// Replays counts instance replays (one per flavour, tier, schedule or
	// arm); on the vm axis, programs that executed on every machine.
	Replays int
	Packets int // packets replayed across the axis
	Probes  int // post-run estimator and stream-oracle checks

	// Chaos axis: fault-site consultations and injections across the
	// grid, in total and by site.
	Evaluated, Injected uint64
	SiteCounts          []faultinject.SiteCount
	// Attack axis: one row per replayed arm.
	Rows []Row

	Violations []Violation
	Total      uint64
}

// Failed reports whether any contract breach was observed.
func (r *Report) Failed() bool { return r.Total > 0 }

func (r *Report) String() string {
	var b strings.Builder
	switch r.Axis {
	case AxisChaos:
		fmt.Fprintf(&b, "chaos: %d cases x %d schedules, %d packets, %d/%d faults injected/evaluated",
			r.Cases, r.Replays/max(r.Cases, 1), r.Packets, r.Injected, r.Evaluated)
	case AxisAttack:
		var admitted, shed, sampled uint64
		for _, row := range r.Rows {
			if row.GuardOn {
				admitted += row.Admitted
				shed += row.Shed
				sampled += row.Sampled
			}
		}
		fmt.Fprintf(&b, "attack: %d cases, %d packets, guarded arms admitted %d / shed %d / sampled-out %d",
			r.Cases, r.Packets, admitted, shed, sampled)
	case AxisVM:
		fmt.Fprintf(&b, "vm: %d programs, %d executed, %d rejected",
			r.Cases, r.Replays, r.Cases-r.Replays-int(r.Total))
	default:
		fmt.Fprintf(&b, "%s: %d cases, %d instances, %d packets replayed, %d probes",
			r.Axis, r.Cases, r.Replays, r.Packets, r.Probes)
	}
	fmt.Fprintf(&b, ", %d violations", r.Total)
	for _, c := range r.SiteCounts {
		fmt.Fprintf(&b, "\n  site %-14s evaluated=%-8d injected=%d", c.Site, c.Evaluated, c.Injected)
	}
	for _, s := range r.scenarios() {
		fmt.Fprintf(&b, "\n  scenario %-14s shed=%d", s, r.Sheds(s))
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// Publish exports the run into reg: the aggregated fault counters in the
// series the fault plane itself uses, so chaos injections appear in the
// -stats exposition, and the axis's violation count.
func (r *Report) Publish(reg *telemetry.Registry) {
	if len(r.SiteCounts) > 0 {
		reg.SetHelp("fault_site_evaluated_total", "fault-injection site consultations")
		reg.SetHelp("fault_site_injected_total", "faults injected at each site")
	}
	for _, c := range r.SiteCounts {
		l := telemetry.L("site", c.Site)
		reg.Counter("fault_site_evaluated_total", l).Add(c.Evaluated)
		reg.Counter("fault_site_injected_total", l).Add(c.Injected)
	}
	name := r.Axis + "_violations_total"
	reg.SetHelp(name, "conformance-contract breaches observed on the "+r.Axis+" axis")
	reg.Counter(name).Add(r.Total)
}

// site is where in the grid a replay sits; violations found there carry
// it.
type site struct{ axis, cell, variant string }

func (r *Report) violate(at site, packet int, kind, detail string) {
	r.Total++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, Violation{Axis: at.axis, Case: at.cell,
			Variant: at.variant, Packet: packet, Kind: kind, Detail: detail})
	}
}

// run is what one replay observed.
type run struct {
	verdicts []uint64 // one per packet; 0 where the packet panicked or errored
	// admitted counts, per flow, the packets that reached the NF: all of
	// them on a bare instance, what the guard let through on a guarded
	// one. It is the ground truth the NF's estimator approximates.
	admitted []uint32
	firstErr int    // first packet that panicked or errored; -1 for none
	digest   uint64 // of the packets as handed in, before any NF wrote to them
}

// shielded runs one packet at its arrival tick, converting a
// native-flavour panic into a recorded value (VM flavours already
// recover into ErrRuntimeFault) and classifying what the guard did with
// the packet (bare instances always admit).
func shielded(inst nf.Instance, pkt []byte, tick uint64) (verdict uint64, act guard.Action, err error, panicked any) {
	defer func() { panicked = recover() }()
	if g, ok := inst.(*guard.Guarded); ok {
		verdict, act, err = g.ProcessAt(pkt, tick)
		return
	}
	act = guard.ActionAdmit
	verdict, err = inst.Process(pkt)
	return
}

// replay drives tr through inst once, in place, and records every breach
// of the per-packet contract at the given site. A failed packet does not
// stop the replay: the contract is per packet, and the compare needs the
// vectors aligned.
func (r *Report) replay(at site, inst nf.Instance, tr *pktgen.Trace) run {
	h := fnv.New64a()
	for i := range tr.Packets {
		h.Write(tr.Packets[i][:])
	}
	out := run{
		verdicts: make([]uint64, len(tr.Packets)),
		admitted: make([]uint32, len(tr.FlowKeys)),
		firstErr: -1,
		digest:   h.Sum64(),
	}
	fail := func(i int, kind, detail string) {
		r.violate(at, i, kind, detail)
		if out.firstErr < 0 {
			out.firstErr = i
		}
	}
	vms := runtime.VMs(inst)
	r.Replays++
	for i := range tr.Packets {
		verdict, act, err, panicked := shielded(inst, tr.Packets[i][:], tr.ArrivalOf(i))
		r.Packets++
		if panicked != nil {
			fail(i, "panic", fmt.Sprint(panicked))
			continue
		}
		if err != nil {
			fail(i, "error", err.Error())
			continue
		}
		out.verdicts[i] = verdict
		if verdict == uint64(vm.XDPAborted) {
			r.violate(at, i, "verdict", "XDP_ABORTED")
		}
		if act == guard.ActionAdmit {
			out.admitted[tr.FlowOf[i]]++
		}
		for _, m := range vms {
			if d := m.LockHeld(); d != 0 {
				r.violate(at, i, "lock", fmt.Sprintf("spin-lock depth %d after exit", d))
			}
		}
	}
	return out
}

// check applies the post-run oracles to one replayed instance: its
// structural invariants and, given ground-truth counts, its estimator
// bound. ok reports whether a bound was evaluated; the axis that has no
// ground truth (chaos: injected faults drop updates) passes nil counts.
func (r *Report) check(at site, b nfcatalog.Built, keys [][nf.KeyLen]byte, counts []uint32) (bound float64, ok bool) {
	if b.Check != nil {
		if err := b.Check(); err != nil {
			r.violate(at, -1, "invariant", err.Error())
		}
	}
	if b.Bound == nil || counts == nil {
		return 0, false
	}
	r.Probes += len(keys)
	bound, err := b.Bound(keys, counts)
	if err != nil {
		r.violate(at, -1, "bound", err.Error())
	}
	return bound, true
}

// compare holds got, replayed at the given site, to ref, the replay of
// the same stream through the variant named refName: the two were handed
// bit-identical packets, failed at the same packet or not at all, and
// agree verdict for verdict. With both estimators given it also demands
// equal estimates for every flow key. The first mismatch of each kind is
// enough to localize; more adds noise.
func (r *Report) compare(at site, refName string, ref, got run, refEst, gotEst func([]byte) uint32, keys [][nf.KeyLen]byte) {
	if ref.digest != got.digest || len(ref.verdicts) != len(got.verdicts) {
		// The variants did not see the same input; every comparison
		// below would be vacuous.
		r.violate(at, -1, "trace", "replayed a different packet stream than "+refName)
		return
	}
	if ref.firstErr != got.firstErr {
		r.violate(at, max(ref.firstErr, got.firstErr), "error",
			fmt.Sprintf("error parity: %s first failed at packet %d, %s at %d (-1: never)",
				refName, ref.firstErr, at.variant, got.firstErr))
	}
	for p := range ref.verdicts {
		if ref.verdicts[p] != got.verdicts[p] {
			r.violate(at, p, "verdict", fmt.Sprintf("%s=%d %s=%d",
				refName, ref.verdicts[p], at.variant, got.verdicts[p]))
			break
		}
	}
	if refEst == nil || gotEst == nil {
		return
	}
	for f, key := range keys {
		r.Probes++
		if want, have := refEst(key[:]), gotEst(key[:]); want != have {
			r.violate(at, -1, "estimate", fmt.Sprintf("flow %d: %s=%d %s=%d",
				f, refName, want, at.variant, have))
			break
		}
	}
}
