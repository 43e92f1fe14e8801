package vm

import (
	"time"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/trace"
)

// SetRecorder attaches (or, with nil, detaches) a flight recorder. While
// attached, Run head-samples packets through it and emits packet_in /
// verdict / map_op / helper / kfunc events for sampled packets. A VM
// without a recorder pays only the shared nil check in Run, the same
// gate vm stats use.
func (vm *VM) SetRecorder(r *trace.Recorder) {
	vm.rec = r
	vm.sampled = false
}

// runObserved is Run's instrumented slow path: stats and/or tracing is
// attached. Sampling happens once per packet at entry; every event the
// packet generates carries the same (Pkt, Flow) pair so /trace can
// reconstruct a packet's full journey to its verdict.
func (vm *VM) runObserved(p *Program, ctx []byte) (uint64, error) {
	var ps *ProgStats
	if vm.stats != nil {
		ps = vm.stats.prog(p.name)
		vm.curProg = ps
	}
	if r := vm.rec; r != nil {
		pkt, ok := r.SamplePacket()
		if ok {
			vm.sampled = true
			vm.curPkt = pkt
			vm.curFlow = trace.FlowOf(ctx)
			r.Emit(trace.Event{
				Kind: trace.KindPacketIn,
				Pkt:  pkt,
				Flow: vm.curFlow,
				Name: p.name,
				Val:  uint64(len(ctx)),
			})
		}
	}
	// Only pay the clock calls when someone consumes the run time:
	// stats, or a sampled packet's verdict latency. At low sample rates
	// the unsampled path is SamplePacket plus branches, nothing more.
	timed := ps != nil || vm.sampled
	var start time.Time
	if timed {
		start = time.Now()
	}
	var ret uint64
	var err error
	switch {
	case vm.tier == TierWire:
		ret, err = vm.exec(p, ctx, ps)
	case vm.tier == TierJIT && ps == nil && !vm.sampled:
		// Unsampled packets with no per-insn attribution keep the
		// compiled path even under an attached recorder.
		ret, err = vm.execJIT(p, ctx)
	default:
		// Per-insn attribution and sampled packets run the observed
		// predecoded loop, exactly as execFast-tier runs do.
		ret, err = vm.execFast(p, ctx, ps)
	}
	var lat uint64
	if timed {
		lat = uint64(time.Since(start).Nanoseconds())
	}
	if ps != nil {
		ps.RunCnt++
		ps.RunTimeNs += lat
		vm.curProg = nil
	}
	if vm.sampled {
		vm.sampled = false
		ev := trace.Event{
			Kind:  trace.KindVerdict,
			Pkt:   vm.curPkt,
			Flow:  vm.curFlow,
			Name:  p.name,
			Val:   ret,
			LatNs: lat,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		vm.rec.Emit(ev)
	}
	return ret, err
}

// emitMapOp records one map helper operation for the sampled packet.
// Callers check vm.sampled first so the unsampled path stays one branch.
func (vm *VM) emitMapOp(fd int32, m maps.ArenaMap, op string, miss bool) {
	vm.rec.Emit(trace.Event{
		Kind: trace.KindMapOp,
		Pkt:  vm.curPkt,
		Flow: vm.curFlow,
		Name: m.Type().String(),
		Op:   op,
		Miss: miss,
		Val:  uint64(uint32(fd)),
	})
}

// emitCall records a helper or kfunc completion for the sampled packet.
func (vm *VM) emitCall(kind trace.Kind, name string, ret uint64) {
	vm.rec.Emit(trace.Event{
		Kind: kind,
		Pkt:  vm.curPkt,
		Flow: vm.curFlow,
		Name: name,
		Val:  ret,
	})
}
