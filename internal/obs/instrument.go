package obs

import (
	"time"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/telemetry"
)

// instrumented wraps an nf.Instance, observing per-packet latency into
// an nf_latency_ns histogram and tallying verdict counters, so a live
// replay feeds /metrics without waiting for the run to finish.
type instrumented struct {
	inner    nf.Instance
	hist     *telemetry.Histogram
	verdicts map[uint64]*telemetry.Counter
	other    *telemetry.Counter
	errors   *telemetry.Counter
}

// Instrument wraps inst so every Process call observes its latency and
// verdict into reg. Wrappers for identically-labeled instances (RSS
// shards of one NF) share series; the registry's primitives are
// internally synchronized, so concurrent shard replays are safe.
func Instrument(inst nf.Instance, reg *telemetry.Registry) nf.Instance {
	nfl := telemetry.L("nf", inst.Name())
	fl := telemetry.L("flavor", inst.Flavor().String())
	reg.SetHelp("nf_latency_ns", "per-packet processing latency in nanoseconds")
	reg.SetHelp("nf_verdicts_total", "packet verdicts returned by the NF")
	w := &instrumented{
		inner: inst,
		// nil bounds = DefaultLatencyBuckets, the same shape
		// harness.Latency publishes, so the two sources merge.
		hist:     reg.Histogram("nf_latency_ns", nil, nfl, fl),
		verdicts: make(map[uint64]*telemetry.Counter, 4),
		errors:   reg.Counter("nf_process_errors_total", nfl, fl),
	}
	for v, name := range map[uint64]string{
		uint64(vm.XDPAborted): "aborted",
		uint64(vm.XDPDrop):    "drop",
		uint64(vm.XDPPass):    "pass",
		uint64(vm.XDPTx):      "tx",
	} {
		w.verdicts[v] = reg.Counter("nf_verdicts_total", nfl, fl, telemetry.L("verdict", name))
	}
	w.other = reg.Counter("nf_verdicts_total", nfl, fl, telemetry.L("verdict", "other"))
	return w
}

func (w *instrumented) Name() string      { return w.inner.Name() }
func (w *instrumented) Flavor() nf.Flavor { return w.inner.Flavor() }

func (w *instrumented) Process(pkt []byte) (uint64, error) {
	start := time.Now()
	v, err := w.inner.Process(pkt)
	w.hist.Observe(float64(time.Since(start).Nanoseconds()))
	if err != nil {
		w.errors.Add(1)
		return v, err
	}
	if c, ok := w.verdicts[v]; ok {
		c.Add(1)
	} else {
		w.other.Add(1)
	}
	return v, err
}
