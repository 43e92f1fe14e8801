package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/nfd"
	"enetstl/internal/runtime"
)

// twin is the oracle for one daemon module: the same NF built from the
// same create body through the public layer functions (not through
// nfd.Module), fed the same ingest bodies in the same order. Its verdict
// tally, shed count and estimator must equal what the daemon answers,
// and timing each of its steps is how the benchmark attributes a
// round-trip to layers from outside the program.
type twin struct {
	name  string
	inst  nf.Instance
	built nfcatalog.Built
	flows [][nf.KeyLen]byte
	stats *vm.Stats // always attached to VM-backed twins: the source of the vm.* spans
	tick  uint64
}

func strictJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func newTwin(createBody []byte) (*twin, error) {
	var req nfd.CreateRequest
	if err := strictJSON(createBody, &req); err != nil {
		return nil, err
	}
	flavor, err := nf.ParseFlavor(req.Flavor)
	if err != nil {
		return nil, err
	}
	seedTrace, err := req.Trace.Build()
	if err != nil {
		return nil, err
	}
	b, err := nfcatalog.BuildWith(req.Options, req.Name, flavor, seedTrace)
	if err != nil {
		return nil, err
	}
	t := &twin{name: req.Name, inst: b.Inst, built: b, flows: seedTrace.FlowKeys}
	if len(runtime.VMs(b.Inst)) > 0 {
		t.stats = runtime.AttachStats(b.Inst)
	}
	if gcfg, guarded := req.Options.GuardConfig(); guarded {
		g := guard.New(req.Name, 0, gcfg)
		b.WireGuard(g)
		t.inst = g.Wrap(t.inst)
	}
	return t, nil
}

// vmTotals sums the twin's VM statistics over its programs.
type vmTotals struct{ runNs, helperNs, kfuncNs, insns uint64 }

func (t *twin) vmTotals() vmTotals {
	var v vmTotals
	if t.stats == nil {
		return v
	}
	for _, name := range t.stats.ProgNames() {
		ps, ok := t.stats.ProgSnapshot(name)
		if !ok {
			continue
		}
		v.runNs += ps.RunTimeNs
		v.insns += ps.Insns
		for _, c := range ps.Helpers {
			v.helperNs += c.Ns
		}
		for _, c := range ps.Kfuncs {
			v.kfuncNs += c.Ns
		}
	}
	return v
}

// ingestTimes is where one twin ingest spent its time, step by step in
// the order the daemon's handler performs them.
type ingestTimes struct {
	decode, build, prepare, replay, encode time.Duration
	vm                                     vmTotals // deltas over the replay
}

// ingest replays one POST packets body exactly as nfd's handler does:
// strict JSON decode, TraceSpec.Build, PrepareTrace unless raw,
// ReplayBatch on the module's arrival clock, JSON encode of the result.
func (t *twin) ingest(body []byte) (harness.BatchResult, ingestTimes, error) {
	var it ingestTimes
	t0 := time.Now()
	var spec runtime.TraceSpec
	if err := strictJSON(body, &spec); err != nil {
		return harness.BatchResult{}, it, err
	}
	t1 := time.Now()
	tr, err := spec.Build()
	if err != nil {
		return harness.BatchResult{}, it, err
	}
	t2 := time.Now()
	if len(spec.Raw) == 0 {
		nfcatalog.PrepareTrace(t.name, tr)
	}
	t3 := time.Now()
	before := t.vmTotals()
	t4 := time.Now()
	res, next, err := harness.ReplayBatch(t.inst, tr, t.tick)
	t5 := time.Now()
	t.tick = next
	if err != nil {
		return res, it, err
	}
	after := t.vmTotals()
	t6 := time.Now()
	enc := json.NewEncoder(&bytes.Buffer{})
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return res, it, err
	}
	it = ingestTimes{
		decode: t1.Sub(t0), build: t2.Sub(t1), prepare: t3.Sub(t2), replay: t5.Sub(t4), encode: time.Since(t6),
		vm: vmTotals{
			runNs: after.runNs - before.runNs, helperNs: after.helperNs - before.helperNs,
			kfuncNs: after.kfuncNs - before.kfuncNs, insns: after.insns - before.insns,
		},
	}
	return res, it, nil
}

// estimate mirrors GET /modules/{id}/estimates?flow=i.
func (t *twin) estimate(flow int) (uint32, error) {
	if t.built.Est == nil {
		return 0, fmt.Errorf("%s has no estimator", t.name)
	}
	if flow < 0 || flow >= len(t.flows) {
		return 0, fmt.Errorf("flow %d outside seed trace", flow)
	}
	return t.built.Est(t.flows[flow][:]), nil
}
