// Package harness measures network-function instances over synthetic
// traces: packets-per-second throughput (the paper's primary metric),
// per-packet processing time, end-to-end latency percentiles (adding a
// constant wire/NIC term, per the DESIGN.md substitution), and the
// shared-behaviour execution-time fraction of Fig. 1.
package harness

import (
	"fmt"
	"math"
	"sort"
	"time"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
	"enetstl/internal/telemetry"
)

// VerdictCounts tallies the verdicts returned over the measured
// trials, keyed by the XDP action codes datapath NFs return. NFs with
// op-style result codes (e.g. skiplist's found/deleted verdicts) land
// in the bucket matching their numeric value, or Other — the tally is
// still useful there as a cheap behavioural fingerprint: a fault that
// silently flips outcomes shows up as a shifted distribution.
type VerdictCounts struct {
	Aborted uint64 // 0: XDP_ABORTED — datapath bug or injected fault escape
	Drop    uint64 // 1: XDP_DROP — includes graceful sheds under faults
	Pass    uint64 // 2: XDP_PASS
	Tx      uint64 // 3: XDP_TX
	Other   uint64 // anything above 3
}

// Count tallies one verdict.
func (v *VerdictCounts) Count(verdict uint64) {
	switch verdict {
	case uint64(vm.XDPAborted):
		v.Aborted++
	case uint64(vm.XDPDrop):
		v.Drop++
	case uint64(vm.XDPPass):
		v.Pass++
	case uint64(vm.XDPTx):
		v.Tx++
	default:
		v.Other++
	}
}

// Add sums o into v.
func (v *VerdictCounts) Add(o VerdictCounts) {
	v.Aborted += o.Aborted
	v.Drop += o.Drop
	v.Pass += o.Pass
	v.Tx += o.Tx
	v.Other += o.Other
}

// Map is the tally by verdict name, BatchResult's serializable form.
func (v VerdictCounts) Map() map[string]uint64 {
	return map[string]uint64{
		"aborted": v.Aborted,
		"drop":    v.Drop,
		"pass":    v.Pass,
		"tx":      v.Tx,
		"other":   v.Other,
	}
}

func (v VerdictCounts) String() string {
	return fmt.Sprintf("aborted=%d drop=%d pass=%d tx=%d other=%d",
		v.Aborted, v.Drop, v.Pass, v.Tx, v.Other)
}

// Result is one throughput measurement.
type Result struct {
	Name    string
	Flavor  string
	Trials  int
	PPS     float64 // mean packets per second
	PPSStd  float64
	NsPerOp float64 // mean per-packet processing time
	// Verdicts tallies the verdicts returned across all measured
	// trials (the warm-up pass is excluded).
	Verdicts VerdictCounts
	// Stats is a snapshot of the backing VM's accumulated program
	// counters, when the instance is VM-backed and stats are enabled.
	Stats *vm.ProgStats
}

func (r Result) String() string {
	return fmt.Sprintf("%-14s %-8s %10.0f pps (±%.0f) %8.1f ns/pkt",
		r.Name, r.Flavor, r.PPS, r.PPSStd, r.NsPerOp)
}

// Throughput replays the trace through inst `trials` times (after one
// warm-up pass), each pass one ReplayBatch with the arrival clock
// threaded on, and reports mean PPS with standard deviation, plus a
// tally of the verdicts returned across the measured trials.
func Throughput(inst nf.Instance, trace *pktgen.Trace, trials int) (Result, error) {
	if trials <= 0 {
		trials = 3
	}
	if len(trace.Packets) == 0 {
		return Result{}, fmt.Errorf("harness: empty trace")
	}
	var verdicts VerdictCounts
	pps := make([]float64, trials)
	var tick uint64
	for t := -1; t < trials; t++ { // t = -1 is the warm-up, not tallied
		res, next, err := ReplayBatch(inst, trace, tick)
		if err != nil {
			return Result{}, fmt.Errorf("%s/%s: %w", inst.Name(), inst.Flavor(), err)
		}
		tick = next
		if t >= 0 {
			verdicts.Add(res.Verdicts)
			pps[t] = float64(res.Packets) / time.Duration(res.Ns).Seconds()
		}
	}
	mean, std := meanStd(pps)
	return Result{
		Name: inst.Name(), Flavor: inst.Flavor().String(), Trials: trials,
		PPS: mean, PPSStd: std, NsPerOp: 1e9 / mean,
		Verdicts: verdicts,
		Stats:    vmStats(inst),
	}, nil
}

// vmStats snapshots the program counters of a VM-backed instance with
// stats enabled; nil otherwise.
func vmStats(inst nf.Instance) *vm.ProgStats {
	v, ok := inst.(*nf.VMInstance)
	if !ok || v.Machine.Stats() == nil {
		return nil
	}
	ps, ok := v.Machine.Stats().ProgSnapshot(v.Prog.Name())
	if !ok {
		return nil
	}
	return &ps
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return mean, std
}

// LatencyResult summarizes per-packet latency including the constant
// wire/NIC term.
type LatencyResult struct {
	Name   string
	Flavor string
	P50    float64 // ns
	P99    float64
	Mean   float64
	// Dist is the full latency distribution (telemetry histogram
	// snapshot: count, sum, min/max, bucket-estimated quantiles).
	Dist telemetry.HistSnapshot
	// Hist is the live histogram behind Dist; Publish merges it into a
	// registry as a native Prometheus histogram series.
	Hist *telemetry.Histogram
	// Stats mirrors Result.Stats for VM-backed instances.
	Stats *vm.ProgStats
}

// Publish exports the latency measurement into reg: nf_latency_ns as a
// native Prometheus histogram (bucket/sum/count series) plus the exact
// rank-interpolated quantiles as nf_latency_quantile_ns gauges, labeled
// by NF and flavor.
func (l LatencyResult) Publish(reg *telemetry.Registry) {
	nfl := telemetry.L("nf", l.Name)
	fl := telemetry.L("flavor", l.Flavor)
	reg.SetHelp("nf_latency_ns", "per-packet latency distribution, ns (includes wire term)")
	reg.SetHelp("nf_latency_quantile_ns", "exact rank-interpolated latency quantiles, ns")
	reg.MergeHistogram("nf_latency_ns", l.Hist, nfl, fl)
	reg.Gauge("nf_latency_quantile_ns", nfl, fl, telemetry.L("quantile", "p50")).Set(l.P50)
	reg.Gauge("nf_latency_quantile_ns", nfl, fl, telemetry.L("quantile", "p99")).Set(l.P99)
	reg.Gauge("nf_latency_quantile_ns", nfl, fl, telemetry.L("quantile", "mean")).Set(l.Mean)
}

func (l LatencyResult) String() string {
	return fmt.Sprintf("%-14s %-8s p50=%.0fns p99=%.0fns mean=%.0fns",
		l.Name, l.Flavor, l.P50, l.P99, l.Mean)
}

// WireNs is the constant send+receive path latency added to per-packet
// processing time (cables, NIC, driver — identical across flavours, as
// in the paper's low-load Fig. 4 setup).
const WireNs = 3000

// Latency measures per-packet processing latency over the trace,
// modelling the paper's 1 kpps low-load experiment: each packet is
// timed individually and the constant wire term added. P50/P99 are
// exact linearly-interpolated rank quantiles over the observed
// samples; Dist carries the telemetry histogram of the same samples.
//
// It is the one packet loop besides ReplayBatch: it reads the clock
// around every packet, a cost ReplayBatch's other callers must not pay.
func Latency(inst nf.Instance, trace *pktgen.Trace) (LatencyResult, error) {
	if len(trace.Packets) == 0 {
		return LatencyResult{}, fmt.Errorf("harness: empty trace")
	}
	hist := telemetry.NewHistogram(nil)
	durs := make([]float64, 0, len(trace.Packets))
	for i := range trace.Packets {
		start := time.Now()
		if _, err := inst.Process(trace.Packets[i][:]); err != nil {
			return LatencyResult{}, err
		}
		d := float64(time.Since(start).Nanoseconds()) + WireNs
		durs = append(durs, d)
		hist.Observe(d)
	}
	sort.Float64s(durs)
	var sum float64
	for _, d := range durs {
		sum += d
	}
	return LatencyResult{
		Name: inst.Name(), Flavor: inst.Flavor().String(),
		P50:   telemetry.Quantile(durs, 0.50),
		P99:   telemetry.Quantile(durs, 0.99),
		Mean:  sum / float64(len(durs)),
		Dist:  hist.Snapshot(),
		Hist:  hist,
		Stats: vmStats(inst),
	}, nil
}

// BehaviorFraction estimates the share of execution time attributable
// to a shared behaviour (Fig. 1): it compares a full NF against a
// variant with that behaviour stripped, on the same trace.
func BehaviorFraction(full, stripped nf.Instance, trace *pktgen.Trace, trials int) (float64, error) {
	f, err := Throughput(full, trace, trials)
	if err != nil {
		return 0, err
	}
	s, err := Throughput(stripped, trace, trials)
	if err != nil {
		return 0, err
	}
	tFull := 1 / f.PPS
	tStripped := 1 / s.PPS
	frac := (tFull - tStripped) / tFull
	if frac < 0 {
		frac = 0
	}
	return frac, nil
}
