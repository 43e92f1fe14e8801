// Package timewheel implements Carousel's queueing stage ([63]) as a
// calendar queue over one level of time slots (the paper's Listing 5):
// packets are enqueued into the bucket of their transmission timestamp
// and drained as the clock advances.
//
//   - Kernel: native Go on eNetSTL's list-buckets.
//   - EBPF: bytecode using the BPF linked-list helpers, which require a
//     spin lock around every list operation and one map lookup per
//     bucket (the two costs §4.3 attributes to eBPF lists).
//   - ENetSTL: bytecode on the list-buckets kfuncs: per-CPU, lock-free,
//     one handle for all buckets.
//
// Element payloads are 16 bytes (timestamp, flow id). A dequeue drains
// at most DrainBatch elements from the current slot, then advances the
// clock — the bounded-loop idiom verified eBPF code must use.
package timewheel

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/core"
	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/listbuckets"
	"enetstl/internal/nf"
	"enetstl/internal/nf/nfasm"
)

// Element and batch sizing.
const (
	ElemSize   = 16
	DrainBatch = 16

	// DrainBase is added to the drained-element count in the dequeue
	// verdict.
	DrainBase = 1000
)

// Config sizes the wheel.
type Config struct {
	Slots int // power of two

	// Levels selects a one-level calendar queue (1, Listing 5) or the
	// two-level hierarchical wheel of the paper's evaluation (2): far
	// deadlines park in a second wheel of Slots super-slots and cascade
	// into level 1 when their super-slot expires. Default 1.
	Levels int

	// Stripped removes the linked-list behaviour (observation O3) from
	// the EBPF flavour: bucket indices are computed but nothing is
	// queued or drained. Used by Fig. 1.
	Stripped bool
}

func (c Config) validate() error {
	if c.Slots <= 0 || c.Slots&(c.Slots-1) != 0 {
		return fmt.Errorf("timewheel: slots %d must be a power of two", c.Slots)
	}
	if c.Levels < 0 || c.Levels > 2 {
		return fmt.Errorf("timewheel: levels %d out of range [1,2]", c.Levels)
	}
	return nil
}

// norm applies defaults.
func (c Config) norm() Config {
	if c.Levels == 0 {
		c.Levels = 1
	}
	return c
}

// Wheel is one built instance.
type Wheel struct {
	nf.Instance
	cfg Config

	// Kernel flavour state (lb2 is the second level when Levels == 2).
	lb  *listbuckets.ListBuckets
	lb2 *listbuckets.ListBuckets
	clk uint64

	// VM flavour state (for tests/inspection).
	machine *vm.VM
	state   *maps.Array
	lib     *core.Lib
	handle  uint64
	handle2 uint64 // second level (ENetSTL flavour, Levels == 2)
}

// VM exposes the backing machine (nil for the Kernel flavour). The
// embedded nf.Instance is an interface, so the *VMInstance method is
// not promoted; chaos instrumentation needs this explicit accessor.
func (w *Wheel) VM() *vm.VM { return w.machine }

// CheckInvariants validates the structural invariants of every bucket
// list backing the wheel, across flavours. The EBPF flavour keeps its
// buckets inside plain maps and has no linked structure to check.
func (w *Wheel) CheckInvariants() error {
	for _, lb := range []*listbuckets.ListBuckets{w.lb, w.lb2} {
		if lb == nil {
			continue
		}
		if err := lb.CheckInvariants(); err != nil {
			return err
		}
	}
	if w.lib != nil {
		for _, h := range []uint64{w.handle, w.handle2} {
			if h == 0 {
				continue
			}
			lb, err := w.lib.Buckets(h)
			if err != nil {
				return err
			}
			if err := lb.CheckInvariants(); err != nil {
				return err
			}
		}
	}
	return nil
}

// New builds the NF in the requested flavour.
func New(flavor nf.Flavor, cfg Config) (*Wheel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.norm()
	if cfg.Levels == 2 {
		return newTwoLevel(flavor, cfg)
	}
	w := &Wheel{cfg: cfg}
	switch flavor {
	case nf.Kernel:
		w.lb = listbuckets.Must(listbuckets.New(cfg.Slots, ElemSize, 1024))
		w.Instance = &nf.NativeInstance{NFName: "timewheel", Fn: w.processNative}
		return w, nil
	case nf.EBPF:
		machine := vm.New()
		w.machine = machine
		// Per-bucket elements: [lock u32, pad u32, list head 16B].
		buckets := maps.Must(maps.NewArray(8+vm.ListHeadSize, cfg.Slots))
		bFD := machine.RegisterMap(buckets)
		w.state = maps.Must(maps.NewArray(8, 1)) // clk
		sFD := machine.RegisterMap(w.state)
		b := buildEBPF(bFD, sFD, cfg)
		ins, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("timewheel: assemble: %w", err)
		}
		p, err := verifier.LoadAndVerify(machine, "timewheel", ins,
			verifier.Options{CtxSize: nf.PktSize, ListNodeSize: ElemSize})
		if err != nil {
			return nil, err
		}
		w.Instance = nf.NewVMInstance("timewheel", flavor, machine, p)
		return w, nil
	case nf.ENetSTL:
		machine := vm.New()
		w.machine = machine
		w.lib = core.Attach(machine, core.Config{})
		w.state = maps.Must(maps.NewArray(16, 1)) // [clk u64, handle u64]
		sFD := machine.RegisterMap(w.state)
		w.handle = core.MustHandle(w.lib.NewBucketsHandle(cfg.Slots, ElemSize, 1024))
		binary.LittleEndian.PutUint64(w.state.Data()[8:], w.handle)
		b := buildENetSTL(sFD, cfg)
		ins, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("timewheel: assemble: %w", err)
		}
		p, err := verifier.LoadAndVerify(machine, "timewheel", ins,
			verifier.Options{CtxSize: nf.PktSize})
		if err != nil {
			return nil, err
		}
		w.Instance = nf.NewVMInstance("timewheel", flavor, machine, p)
		return w, nil
	}
	return nil, fmt.Errorf("timewheel: unknown flavor %v", flavor)
}

// processNative is the kernel flavour: list-buckets natively.
func (w *Wheel) processNative(pkt []byte) uint64 {
	mask := uint64(w.cfg.Slots - 1)
	op := binary.LittleEndian.Uint32(pkt[nf.OffOp:])
	if op == nf.OpEnqueue {
		ts := binary.LittleEndian.Uint64(pkt[nf.OffTS:])
		if ts < w.clk {
			ts = w.clk
		}
		var elem [ElemSize]byte
		binary.LittleEndian.PutUint64(elem[0:], ts)
		copy(elem[8:], pkt[nf.OffKey:nf.OffKey+8])
		w.lb.PushBack(int(ts&mask), elem[:])
		return vm.XDPPass
	}
	idx := int(w.clk & mask)
	drained := 0
	var out [ElemSize]byte
	for i := 0; i < DrainBatch; i++ {
		if !w.lb.PopFront(idx, out[:]) {
			break
		}
		drained++
	}
	w.clk++
	return DrainBase + uint64(drained)
}

// buildEBPF emits the BPF-linked-list implementation: per-op spin lock,
// per-bucket map lookups, obj_new/obj_drop node management.
func buildEBPF(bFD, sFD int32, cfg Config) *asm.Builder {
	mask := int32(cfg.Slots - 1)
	b := asm.New()
	b.Mov(asm.R6, asm.R1)
	// clk -> R9
	nfasm.EmitMapLookupConstOrExit(b, sFD, 0, -4, "st")
	b.Mov(asm.R8, asm.R0) // state ptr
	b.Load(asm.R9, asm.R8, 0, 8)
	b.Load(asm.R0, asm.R6, nf.OffOp, 4)
	b.JmpImm(asm.JNE, asm.R0, nf.OpEnqueue, "dequeue")

	// --- Enqueue ---
	b.Load(asm.R7, asm.R6, nf.OffTS, 8)
	b.Jmp(asm.JGE, asm.R7, asm.R9, "ts_ok")
	b.Mov(asm.R7, asm.R9)
	b.Label("ts_ok")
	b.AndImm(asm.R7, mask) // bucket index
	if cfg.Stripped {
		b.MovImm(asm.R0, int32(vm.XDPPass))
		b.Exit()
	}
	nfasm.EmitMapLookupOrExit(b, bFD, asm.R7, -4, "bkt")
	b.Mov(asm.R7, asm.R0) // bucket ptr [lock, pad, head]
	// node = obj_new(ElemSize)
	b.MovImm(asm.R1, ElemSize)
	b.Call(vm.HelperObjNew)
	b.JmpImm(asm.JNE, asm.R0, 0, "alloc_ok")
	b.MovImm(asm.R0, int32(vm.XDPDrop))
	b.Exit()
	b.Label("alloc_ok")
	b.Mov(asm.R8, asm.R0)
	// payload: [ts, flow]
	b.Load(asm.R1, asm.R6, nf.OffTS, 8)
	b.Store(asm.R8, vm.NodeHeaderSize, asm.R1, 8)
	b.Load(asm.R1, asm.R6, nf.OffKey, 8)
	b.Store(asm.R8, vm.NodeHeaderSize+8, asm.R1, 8)
	// lock; push_back(head, node); unlock
	b.Mov(asm.R1, asm.R7)
	b.Call(vm.HelperSpinLock)
	b.Mov(asm.R1, asm.R7).AddImm(asm.R1, 8)
	b.Mov(asm.R2, asm.R8)
	b.Call(vm.HelperListPushBack)
	b.Mov(asm.R1, asm.R7)
	b.Call(vm.HelperSpinUnlock)
	b.MovImm(asm.R0, int32(vm.XDPPass))
	b.Exit()

	// --- Dequeue: drain up to DrainBatch from bucket clk&mask ---
	b.Label("dequeue")
	b.Mov(asm.R7, asm.R9).AndImm(asm.R7, mask)
	if cfg.Stripped {
		b.Load(asm.R1, asm.R8, 0, 8)
		b.AddImm(asm.R1, 1)
		b.Store(asm.R8, 0, asm.R1, 8)
		b.MovImm(asm.R0, DrainBase)
		b.Exit()
	}
	nfasm.EmitMapLookupOrExit(b, bFD, asm.R7, -4, "dq")
	b.Mov(asm.R7, asm.R0)
	b.MovImm(asm.R9, 0) // drained count
	b.Mov(asm.R1, asm.R7)
	b.Call(vm.HelperSpinLock)
	for i := 0; i < DrainBatch; i++ {
		b.Mov(asm.R1, asm.R7).AddImm(asm.R1, 8)
		b.Call(vm.HelperListPopFront)
		b.JmpImm(asm.JEQ, asm.R0, 0, "drained")
		b.Mov(asm.R1, asm.R0)
		b.Call(vm.HelperObjDrop)
		b.AddImm(asm.R9, 1)
	}
	b.Label("drained")
	b.Mov(asm.R1, asm.R7)
	b.Call(vm.HelperSpinUnlock)
	// clk++
	nfasm.EmitMapLookupConstOrExit(b, sFD, 0, -4, "st2")
	b.Load(asm.R1, asm.R0, 0, 8)
	b.AddImm(asm.R1, 1)
	b.Store(asm.R0, 0, asm.R1, 8)
	b.Mov(asm.R0, asm.R9)
	b.AddImm(asm.R0, DrainBase)
	b.Exit()
	return b
}

// buildENetSTL emits the list-buckets implementation of Listing 5.
func buildENetSTL(sFD int32, cfg Config) *asm.Builder {
	mask := int32(cfg.Slots - 1)
	b := asm.New()
	b.Mov(asm.R6, asm.R1)
	nfasm.EmitMapLookupConstOrExit(b, sFD, 0, -4, "st")
	b.Mov(asm.R8, asm.R0)                                  // state ptr
	b.Load(asm.R9, asm.R8, 0, 8)                           // clk
	nfasm.EmitLoadHandleOrExit(b, asm.R8, 8, asm.R7, "bl") // handle
	b.Load(asm.R0, asm.R6, nf.OffOp, 4)
	b.JmpImm(asm.JNE, asm.R0, nf.OpEnqueue, "dequeue")

	// --- Enqueue ---
	b.Load(asm.R2, asm.R6, nf.OffTS, 8)
	b.Jmp(asm.JGE, asm.R2, asm.R9, "ts_ok")
	b.Mov(asm.R2, asm.R9)
	b.Label("ts_ok")
	// payload on stack: [ts, flow]
	b.Store(asm.R10, -24, asm.R2, 8)
	b.Load(asm.R1, asm.R6, nf.OffKey, 8)
	b.Store(asm.R10, -16, asm.R1, 8)
	b.AndImm(asm.R2, mask)
	// kf_bktlist_push_back(handle, idx, payload, 16)
	b.Mov(asm.R1, asm.R7)
	b.Mov(asm.R3, asm.R10).AddImm(asm.R3, -24)
	b.MovImm(asm.R4, ElemSize)
	b.Kfunc(core.KfBktPushBack)
	b.MovImm(asm.R0, int32(vm.XDPPass))
	b.Exit()

	// --- Dequeue ---
	b.Label("dequeue")
	b.Mov(asm.R8, asm.R9).AndImm(asm.R8, mask) // idx
	b.MovImm(asm.R9, 0)                        // drained
	for i := 0; i < DrainBatch; i++ {
		b.Mov(asm.R1, asm.R7)
		b.Mov(asm.R2, asm.R8)
		b.Mov(asm.R3, asm.R10).AddImm(asm.R3, -24)
		b.MovImm(asm.R4, ElemSize)
		b.Kfunc(core.KfBktPopFront)
		b.JmpImm(asm.JEQ, asm.R0, 0, "drained")
		b.AddImm(asm.R9, 1)
	}
	b.Label("drained")
	// clk++
	nfasm.EmitMapLookupConstOrExit(b, sFD, 0, -4, "st2")
	b.Load(asm.R1, asm.R0, 0, 8)
	b.AddImm(asm.R1, 1)
	b.Store(asm.R0, 0, asm.R1, 8)
	b.Mov(asm.R0, asm.R9)
	b.AddImm(asm.R0, DrainBase)
	b.Exit()
	return b
}
