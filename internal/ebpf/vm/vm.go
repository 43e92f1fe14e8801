// Package vm implements the simulated eBPF virtual machine: an
// interpreter for the ISA defined in internal/ebpf/isa with a safe,
// region-based memory model, BPF map access, helper functions, and a
// kfunc registry through which the eNetSTL library is exposed.
//
// The interpreter deliberately has the performance profile of real eBPF
// relative to native code: bytecode pays per-instruction dispatch and
// per-call overhead, while a kfunc call transfers control to native Go
// once and runs at full speed — the asymmetry the paper's evaluation is
// built on.
package vm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/trace"
)

// Pointers are encoded as regionID<<RegionShift | offset. Region 0 is
// reserved so that NULL (0) is never a valid pointer. 32 offset bits
// bound any single region at 4 GiB; 32 region bits allow millions of
// dynamically allocated nodes.
const (
	// RegionShift is the bit position of the region ID within a pointer.
	RegionShift = 32
	offMask     = (uint64(1) << RegionShift) - 1
)

// StackSize is the per-program stack size in bytes, as in Linux.
const StackSize = 512

// XDP verdict codes returned by programs.
const (
	XDPAborted = 0
	XDPDrop    = 1
	XDPPass    = 2
	XDPTx      = 3
)

// Region kinds.
const (
	regFree = iota
	regMem  // plain byte memory
	regMap  // a map object; not directly addressable
)

type region struct {
	kind     uint8
	writable bool
	// owned marks a backing array allocated by the VM itself (AllocMem):
	// freeRegion keeps the buffer and AllocMem reuses it, so per-packet
	// obj_new/obj_drop churn settles into a zero-allocation steady state.
	// Adopted slices (AdoptMem) alias caller memory and are never reused.
	owned bool
	data  []byte
	fd    int32 // regMap: the map's FD (the map itself is mapsByFD[fd])
}

// Errors reported by the interpreter.
var (
	ErrNullDeref     = errors.New("vm: null pointer dereference")
	ErrOOB           = errors.New("vm: out-of-bounds memory access")
	ErrBadPointer    = errors.New("vm: access through invalid pointer")
	ErrReadOnly      = errors.New("vm: write to read-only memory")
	ErrBudget        = errors.New("vm: instruction budget exhausted")
	ErrBadInstr      = errors.New("vm: malformed instruction")
	ErrNoHelper      = errors.New("vm: unknown helper")
	ErrNoKfunc       = errors.New("vm: unknown kfunc")
	ErrLockRequired  = errors.New("vm: list operation without spin lock held")
	ErrLockImbalance = errors.New("vm: spin lock imbalance at exit")
	ErrBadHandle     = errors.New("vm: invalid kernel object handle")
	// ErrRuntimeFault wraps a panic raised inside the interpreter or a
	// native kfunc/helper: the analogue of a kernel oops contained to the
	// program, so a crashing program can never take down the harness.
	ErrRuntimeFault = errors.New("vm: runtime fault")
)

// VM is one simulated eBPF execution environment (think: one CPU with a
// set of attached maps and the eNetSTL module loaded). It is not safe
// for concurrent use; per-CPU parallelism is modeled with one VM per
// goroutine over per-CPU maps.
type VM struct {
	regions []region
	freeIDs []uint64

	stackID uint64
	ctxID   uint64

	mapsByFD []maps.ArenaMap
	// arena region ids, parallel to mapsByFD: one id per arena.
	mapArenas [][]uint64
	// id of each map's own (non-addressable) region, parallel to mapsByFD.
	mapRegions []uint64

	// Helper and kfunc registries: a dense table indexed by the slot the
	// predecoder resolves call instructions to, plus the id→slot map used
	// at registration/predecode time. The wire-format loop routes through
	// the same tables, so late registration works on both paths.
	helperIdx map[int32]int32
	helperTab []HelperFn
	kfuncIdx  map[int32]int32
	kfuncTab  []*Kfunc

	// lookupReplaced: map_lookup_elem is no longer the built-in, so the
	// kRunLookupArray fast path (which inlines the built-in) must not run.
	lookupReplaced bool

	objects []any

	taus     [4]uint32
	lockHeld int
	lockWord uint32

	// Budget is the per-run instruction limit (default 4M).
	Budget int

	// RegSink, when non-nil, receives a copy of the full register file at
	// program exit (the JmpExit path). The differential-testing harness
	// compares it against the reference interpreter's registers; nil (the
	// default) keeps the hot path to a single predictable branch.
	RegSink *[isa.NumRegs]uint64

	// tier selects the execution tier: the predecoded fast path (the
	// default), the wire-format reference loop, or the block-compiled
	// JIT; the differential suite runs all three against each other.
	tier Tier

	// InsnCount accumulates executed instructions across runs; the
	// harness uses it for Fig. 1 style behaviour accounting.
	InsnCount uint64

	// stats is the attached telemetry collection domain; nil (the
	// default) means disabled and keeps the hot path unmetered, like
	// bpf_stats_enabled=0. curProg points at the running program's
	// counters so helper/kfunc dispatch can attribute call time.
	stats   *Stats
	curProg *ProgStats

	// rec is the attached flight recorder; nil (the default) means
	// tracing is off and Run's disabled path stays unmetered. sampled is
	// true while the current packet is head-sampled in; curPkt/curFlow
	// tag every event the packet generates.
	rec     *trace.Recorder
	sampled bool
	curPkt  uint64
	curFlow uint32

	// jst is the reusable JIT machine state (register file, stack view,
	// pending budget refund); owned by execJIT so block closures never
	// force a per-packet allocation.
	jst jitState

	// kfuncFault, when set, is consulted before dispatching any kfunc
	// whose Meta.ErrInject is true (the ALLOW_ERROR_INJECTION surface).
	// Returning (ret, true) short-circuits the call: the kfunc body
	// never runs and R0 gets ret.
	kfuncFault func(k *Kfunc) (uint64, bool)
	// allocFault, when it returns true, makes HelperObjNew return NULL,
	// the bpf_obj_new allocation-failure path.
	allocFault func() bool
}

// New creates a VM with an empty map table and the built-in helpers.
func New() *VM {
	vm := &VM{
		regions:   make([]region, 1, 64), // region 0 reserved
		helperIdx: make(map[int32]int32),
		kfuncIdx:  make(map[int32]int32),
		Budget:    1 << 22,
	}
	vm.stackID = vm.allocRegion(make([]byte, StackSize), true)
	vm.ctxID = vm.allocRegion(nil, true)
	registerBuiltinHelpers(vm)
	return vm
}

func (vm *VM) allocRegion(data []byte, writable bool) uint64 {
	var id uint64
	if n := len(vm.freeIDs); n > 0 {
		id = vm.freeIDs[n-1]
		vm.freeIDs = vm.freeIDs[:n-1]
		vm.regions[id] = region{kind: regMem, writable: writable, data: data}
	} else {
		vm.regions = append(vm.regions, region{kind: regMem, writable: writable, data: data})
		id = uint64(len(vm.regions) - 1)
	}
	return id
}

func (vm *VM) freeRegion(id uint64) {
	r := &vm.regions[id]
	if r.owned {
		// Keep the buffer for AllocMem reuse; regFree still blocks any
		// access through stale pointers.
		*r = region{kind: regFree, owned: true, data: r.data[:0]}
	} else {
		*r = region{kind: regFree}
	}
	vm.freeIDs = append(vm.freeIDs, id)
}

// AllocMem allocates a zeroed memory region of n bytes and returns a
// pointer to it. Used by helpers and kfuncs that hand memory to
// programs (bpf_obj_new, memory-wrapper nodes). Recently freed regions
// whose retained buffer fits are reused, so steady-state per-packet
// alloc/free cycles do not allocate.
func (vm *VM) AllocMem(n int) uint64 {
	ids := vm.freeIDs
	for i := len(ids) - 1; i >= 0 && i >= len(ids)-4; i-- {
		id := ids[i]
		r := &vm.regions[id]
		if r.owned && cap(r.data) >= n {
			ids[i] = ids[len(ids)-1]
			vm.freeIDs = ids[:len(ids)-1]
			data := r.data[:n]
			clear(data)
			*r = region{kind: regMem, writable: true, owned: true, data: data}
			return id << RegionShift
		}
	}
	id := vm.allocRegion(make([]byte, n), true)
	vm.regions[id].owned = true
	return id << RegionShift
}

// AdoptMem registers an existing byte slice as a readable/writable
// region and returns a pointer to its start. The caller keeps aliasing
// the slice, which is how kfunc-managed native objects share memory with
// programs.
func (vm *VM) AdoptMem(b []byte) uint64 {
	return vm.allocRegion(b, true) << RegionShift
}

// FreeMem releases a region previously returned by AllocMem/AdoptMem.
// Subsequent access through stale pointers fails with ErrBadPointer.
func (vm *VM) FreeMem(ptr uint64) error {
	id := ptr >> RegionShift
	if id == 0 || id >= uint64(len(vm.regions)) || vm.regions[id].kind != regMem {
		return ErrBadPointer
	}
	if id == vm.stackID || id == vm.ctxID {
		return ErrBadPointer
	}
	vm.freeRegion(id)
	return nil
}

// Bytes resolves ptr into its backing bytes with a bounds check for n
// bytes. Helpers and kfuncs use it to view program-supplied memory.
func (vm *VM) Bytes(ptr uint64, n int) ([]byte, error) {
	if ptr == 0 {
		return nil, ErrNullDeref
	}
	id := ptr >> RegionShift
	off := ptr & offMask
	if id >= uint64(len(vm.regions)) {
		return nil, ErrBadPointer
	}
	r := &vm.regions[id]
	if r.kind != regMem {
		return nil, ErrBadPointer
	}
	if off+uint64(n) > uint64(len(r.data)) {
		return nil, ErrOOB
	}
	return r.data[off : off+uint64(n)], nil
}

// RegisterMap attaches a map to the VM and returns its FD for use with
// asm.LoadMap. All arenas are registered as regions up front.
func (vm *VM) RegisterMap(m maps.ArenaMap) int32 {
	fd := int32(len(vm.mapsByFD))
	vm.mapsByFD = append(vm.mapsByFD, m)
	ids := make([]uint64, m.ArenaCount())
	for i := range ids {
		ids[i] = vm.allocRegion(m.Arena(i), true)
	}
	vm.mapArenas = append(vm.mapArenas, ids)
	// Register the map object itself as a non-addressable region so map
	// pointers are distinguishable from memory pointers.
	vm.regions = append(vm.regions, region{kind: regMap, fd: fd})
	vm.mapRegions = append(vm.mapRegions, uint64(len(vm.regions)-1))
	return fd
}

// Maps returns the attached maps in FD order (a copy; the FD table
// itself stays private). The overload guard walks it to wire map-memory
// watermark probes without knowing how an NF allocated its tables.
func (vm *VM) Maps() []maps.ArenaMap {
	return append([]maps.ArenaMap(nil), vm.mapsByFD...)
}

// Map returns the map registered under fd, or nil.
func (vm *VM) Map(fd int32) maps.ArenaMap {
	if fd < 0 || int(fd) >= len(vm.mapsByFD) {
		return nil
	}
	return vm.mapsByFD[fd]
}

func (vm *VM) mapPointer(fd int32) (uint64, bool) {
	if fd < 0 || int(fd) >= len(vm.mapsByFD) {
		return 0, false
	}
	return vm.mapRegions[fd] << RegionShift, true
}

// WrapMaps rewrites every attached map through wrap. Loaded programs'
// map pointers name the FD, so they resolve to the wrapper from then on.
// Returning the input (or nil) leaves that map untouched. The
// conformance grid's chaos axis uses it to interpose fault decorators
// after programs are loaded; arena regions keep aliasing the original
// backing stores, so existing value pointers stay valid.
func (vm *VM) WrapMaps(wrap func(m maps.ArenaMap) maps.ArenaMap) {
	for fd, m := range vm.mapsByFD {
		if w := wrap(m); w != nil {
			vm.mapsByFD[fd] = w
		}
	}
}

// SetKfuncFault installs (or clears, with nil) the error-injection hook
// consulted before dispatching kfuncs tagged Meta.ErrInject.
func (vm *VM) SetKfuncFault(fn func(k *Kfunc) (uint64, bool)) { vm.kfuncFault = fn }

// SetAllocFault installs (or clears, with nil) the allocation-failure
// hook for HelperObjNew.
func (vm *VM) SetAllocFault(fn func() bool) { vm.allocFault = fn }

// LockHeld returns the spin-lock depth (0 when balanced); the
// conformance grid asserts it is zero after every packet.
func (vm *VM) LockHeld() int { return vm.lockHeld }

// Prandom32 is the bpf_get_prandom_u32 implementation: the kernel's
// four-LFSR tausworthe generator (prandom_u32_state), kept faithful so
// the helper carries its real per-call cost.
func (vm *VM) Prandom32() uint32 {
	s := &vm.taus
	if s[0] == 0 {
		const seed = 0x7f4a7c15
		s[0], s[1], s[2], s[3] = seed^0x9e3779b9, seed^0x7f4a7c15, seed^0x85ebca6b, seed^0xc2b2ae35
		// Satisfy the generators' minimum-seed constraints.
		if s[0] < 2 {
			s[0] += 2
		}
		if s[1] < 8 {
			s[1] += 8
		}
		if s[2] < 16 {
			s[2] += 16
		}
		if s[3] < 128 {
			s[3] += 128
		}
	}
	s[0] = ((s[0] & 0xfffffffe) << 18) ^ (((s[0] << 6) ^ s[0]) >> 13)
	s[1] = ((s[1] & 0xfffffff8) << 2) ^ (((s[1] << 2) ^ s[1]) >> 27)
	s[2] = ((s[2] & 0xfffffff0) << 7) ^ (((s[2] << 13) ^ s[2]) >> 21)
	s[3] = ((s[3] & 0xffffff80) << 13) ^ (((s[3] << 3) ^ s[3]) >> 12)
	return s[0] ^ s[1] ^ s[2] ^ s[3]
}

// AllocHandle stores obj in the kernel object table and returns a
// non-zero opaque handle (the kptr analogue).
func (vm *VM) AllocHandle(obj any) uint64 {
	vm.objects = append(vm.objects, obj)
	return uint64(len(vm.objects))
}

// Object resolves a handle previously returned by AllocHandle.
func (vm *VM) Object(h uint64) (any, error) {
	idx := int(h) - 1
	if idx < 0 || idx >= len(vm.objects) || vm.objects[idx] == nil {
		return nil, ErrBadHandle
	}
	return vm.objects[idx], nil
}

// Stack returns the stack region bytes (for tests).
func (vm *VM) Stack() []byte { return vm.regions[vm.stackID].data }

// load reads size bytes little-endian at ptr.
func (vm *VM) load(ptr uint64, size int) (uint64, error) {
	b, err := vm.Bytes(ptr, size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(b[0]) | uint64(b[1])<<8, nil
	case 4:
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24, nil
	case 8:
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
	}
	return 0, ErrBadInstr
}

func (vm *VM) store(ptr uint64, size int, val uint64) error {
	if ptr == 0 {
		return ErrNullDeref
	}
	id := ptr >> RegionShift
	if id < uint64(len(vm.regions)) && vm.regions[id].kind == regMem && !vm.regions[id].writable {
		return ErrReadOnly
	}
	b, err := vm.Bytes(ptr, size)
	if err != nil {
		return err
	}
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		b[0], b[1] = byte(val), byte(val>>8)
	case 4:
		b[0], b[1], b[2], b[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
	case 8:
		b[0], b[1], b[2], b[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
		b[4], b[5], b[6], b[7] = byte(val>>32), byte(val>>40), byte(val>>48), byte(val>>56)
	default:
		return ErrBadInstr
	}
	return nil
}

// Tier selects which execution engine Run uses for a VM.
type Tier uint8

const (
	// TierPredecoded is the default: the flat-IR jump-table interpreter.
	TierPredecoded Tier = iota
	// TierWire is the wire-format reference loop, re-decoding every
	// instruction from the raw encoding — the independently-simple slow
	// path the differential suite compares everything against.
	TierWire
	// TierJIT executes basic blocks compiled to threaded Go closures:
	// no per-instruction dispatch, branches resolved to direct
	// next-block pointers. Compiled lazily on first run; programs the
	// compiler refuses fall back to the predecoded loop.
	TierJIT
)

// String names the tier the way the CLIs spell it (-interp).
func (t Tier) String() string {
	switch t {
	case TierWire:
		return "wire"
	case TierJIT:
		return "jit"
	}
	return "predecoded"
}

// ParseTier parses a CLI tier name.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "wire":
		return TierWire, nil
	case "predecoded", "":
		return TierPredecoded, nil
	case "jit":
		return TierJIT, nil
	}
	return 0, fmt.Errorf("vm: unknown interpreter tier %q (wire|predecoded|jit)", s)
}

// Program is a verified, loaded program with map references resolved
// and the predecoded fast-path stream attached.
type Program struct {
	ins   []isa.Instruction
	dec   []decodedInsn
	fused int
	name  string

	// jit is the block-compiled form, built lazily on the first
	// TierJIT run (jitTried latches the attempt so refusals don't
	// recompile per packet).
	jit      *jitProg
	jitTried bool
}

// Name returns the program's name.
func (p *Program) Name() string { return p.name }

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.ins) }

// Instructions returns the resolved instruction stream (read-only use).
func (p *Program) Instructions() []isa.Instruction { return p.ins }

// Load resolves map FDs in prog against this VM and returns a runnable
// Program. Verification is the verifier package's job; Load only links.
func (vm *VM) Load(name string, prog []isa.Instruction) (*Program, error) {
	out := make([]isa.Instruction, len(prog))
	copy(out, prog)
	for i := 0; i < len(out); i++ {
		ins := out[i]
		if ins.IsLoadImm64() {
			if i+1 >= len(out) {
				return nil, fmt.Errorf("%w: truncated ld_imm64 at %d", ErrBadInstr, i)
			}
			if ins.Src == isa.PseudoMapFD {
				ptr, ok := vm.mapPointer(ins.Imm)
				if !ok {
					return nil, fmt.Errorf("vm: program %q references unknown map fd %d", name, ins.Imm)
				}
				out[i].Src = 0
				out[i].Imm = int32(uint32(ptr))
				out[i+1].Imm = int32(uint32(ptr >> 32))
			}
			i++
		}
	}
	p := &Program{ins: out, name: name}
	p.dec, p.fused = vm.predecode(out)
	if testHookLoad != nil {
		testHookLoad(p)
	}
	return p, nil
}

// testHookLoad, when a test sets it (export_test.go), sees every Program
// Load links — however deep inside an NF constructor the Load happens.
var testHookLoad func(*Program)

// SetTier selects the execution tier for this VM. Load prepares a
// program for every tier (the jit compiles lazily on first run), so the
// tier can be set or changed at any point after construction.
func (vm *VM) SetTier(t Tier) { vm.tier = t }

// Tier returns the selected execution tier.
func (vm *VM) Tier() Tier { return vm.tier }

// Run executes prog with ctx as the packet/context memory. It returns
// the program's R0 (the XDP verdict for datapath programs). With stats
// attached it also accounts run_cnt/run_time_ns and per-instruction /
// per-call counters; the disabled path adds only a nil check.
//
// A panic escaping the interpreter or a native helper/kfunc is
// contained here: the lock state is reset and the panic is returned as
// ErrRuntimeFault, so a crashing program cannot take down the process
// or leave the VM's spin lock wedged.
func (vm *VM) Run(p *Program, ctx []byte) (ret uint64, err error) {
	defer func() {
		// The context is valid for the run only, as an XDP context is:
		// the VM must not keep the caller's batch alive through it.
		vm.regions[vm.ctxID].data = nil
		if rec := recover(); rec != nil {
			vm.lockHeld = 0
			atomic.StoreUint32(&vm.lockWord, 0)
			vm.curProg = nil
			vm.sampled = false
			ret = 0
			err = fmt.Errorf("%w: program %q panicked: %v", ErrRuntimeFault, p.name, rec)
		}
	}()
	if vm.stats == nil && vm.rec == nil {
		switch vm.tier {
		case TierWire:
			return vm.exec(p, ctx, nil)
		case TierJIT:
			return vm.execJIT(p, ctx)
		}
		return vm.execFast(p, ctx, nil)
	}
	return vm.runObserved(p, ctx)
}

// exec is the interpreter loop. ps is non-nil only when stats are
// enabled; every per-instruction cost behind it sits under a
// predictable nil check so the disabled hot path matches the unmetered
// interpreter.
func (vm *VM) exec(p *Program, ctx []byte, ps *ProgStats) (uint64, error) {
	vm.regions[vm.ctxID].data = ctx

	var r [isa.NumRegs]uint64
	r[isa.R1] = vm.ctxID << RegionShift
	r[isa.R2] = uint64(len(ctx))
	r[isa.R10] = vm.stackID<<RegionShift + StackSize

	ins := p.ins
	budget := vm.Budget
	pc := 0
	for {
		if budget <= 0 {
			return 0, ErrBudget
		}
		if pc < 0 || pc >= len(ins) {
			return 0, fmt.Errorf("%w: pc %d out of range", ErrBadInstr, pc)
		}
		budget--
		vm.InsnCount++
		in := ins[pc]
		op := in.Op
		if ps != nil {
			ps.Insns++
			ps.OpClass[op&0x07]++
		}
		switch op & 0x07 {
		case isa.ClassALU64:
			src := uint64(int64(in.Imm))
			if op&0x08 != 0 {
				src = r[in.Src]
			}
			d := &r[in.Dst]
			switch op & 0xf0 {
			case isa.ALUAdd:
				*d += src
			case isa.ALUSub:
				*d -= src
			case isa.ALUMul:
				*d *= src
			case isa.ALUDiv:
				if src == 0 {
					*d = 0
				} else {
					*d /= src
				}
			case isa.ALUMod:
				if src == 0 {
					// eBPF semantics: dst unchanged on mod-by-zero.
				} else {
					*d %= src
				}
			case isa.ALUOr:
				*d |= src
			case isa.ALUAnd:
				*d &= src
			case isa.ALULsh:
				*d <<= src & 63
			case isa.ALURsh:
				*d >>= src & 63
			case isa.ALUArsh:
				*d = uint64(int64(*d) >> (src & 63))
			case isa.ALUXor:
				*d ^= src
			case isa.ALUMov:
				*d = src
			case isa.ALUNeg:
				*d = -*d
			default:
				return 0, fmt.Errorf("%w: alu64 op %#x at %d", ErrBadInstr, op, pc)
			}
		case isa.ClassALU:
			src := uint32(in.Imm)
			if op&0x08 != 0 {
				src = uint32(r[in.Src])
			}
			d32 := uint32(r[in.Dst])
			switch op & 0xf0 {
			case isa.ALUAdd:
				d32 += src
			case isa.ALUSub:
				d32 -= src
			case isa.ALUMul:
				d32 *= src
			case isa.ALUDiv:
				if src == 0 {
					d32 = 0
				} else {
					d32 /= src
				}
			case isa.ALUMod:
				if src != 0 {
					d32 %= src
				}
			case isa.ALUOr:
				d32 |= src
			case isa.ALUAnd:
				d32 &= src
			case isa.ALULsh:
				d32 <<= src & 31
			case isa.ALURsh:
				d32 >>= src & 31
			case isa.ALUArsh:
				d32 = uint32(int32(d32) >> (src & 31))
			case isa.ALUXor:
				d32 ^= src
			case isa.ALUMov:
				d32 = src
			case isa.ALUNeg:
				d32 = -d32
			default:
				return 0, fmt.Errorf("%w: alu32 op %#x at %d", ErrBadInstr, op, pc)
			}
			r[in.Dst] = uint64(d32)
		case isa.ClassJMP:
			jop := op & 0xf0
			switch jop {
			case isa.JmpExit:
				if vm.RegSink != nil {
					*vm.RegSink = r
				}
				if vm.lockHeld != 0 {
					vm.lockHeld = 0
					vm.lockWord = 0
					return 0, ErrLockImbalance
				}
				return r[isa.R0], nil
			case isa.JmpCall:
				var err error
				if in.Src == isa.PseudoKfuncCall {
					err = vm.callKfunc(in.Imm, &r)
				} else {
					err = vm.callHelper(in.Imm, &r)
				}
				if err != nil {
					return 0, fmt.Errorf("at %d (%s): %w", pc, in, err)
				}
				// Calls clobber caller-saved registers.
				r[isa.R1], r[isa.R2], r[isa.R3], r[isa.R4], r[isa.R5] = 0, 0, 0, 0, 0
			case isa.JmpJA:
				pc += int(in.Off)
			default:
				src := uint64(int64(in.Imm))
				if op&0x08 != 0 {
					src = r[in.Src]
				}
				if jumpTaken(jop, r[in.Dst], src) {
					pc += int(in.Off)
				}
			}
		case isa.ClassJMP32:
			jop := op & 0xf0
			src := uint64(uint32(in.Imm))
			if op&0x08 != 0 {
				src = uint64(uint32(r[in.Src]))
			}
			if jumpTaken(jop, uint64(uint32(r[in.Dst])), src) {
				pc += int(in.Off)
			}
		case isa.ClassLDX:
			v, err := vm.load(r[in.Src]+uint64(int64(in.Off)), in.MemSize())
			if err != nil {
				return 0, fmt.Errorf("at %d (%s): %w", pc, in, err)
			}
			r[in.Dst] = v
		case isa.ClassSTX:
			if err := vm.store(r[in.Dst]+uint64(int64(in.Off)), in.MemSize(), r[in.Src]); err != nil {
				return 0, fmt.Errorf("at %d (%s): %w", pc, in, err)
			}
		case isa.ClassST:
			if err := vm.store(r[in.Dst]+uint64(int64(in.Off)), in.MemSize(), uint64(int64(in.Imm))); err != nil {
				return 0, fmt.Errorf("at %d (%s): %w", pc, in, err)
			}
		case isa.ClassLD:
			if !in.IsLoadImm64() || pc+1 >= len(ins) {
				return 0, fmt.Errorf("%w: ld op %#x at %d", ErrBadInstr, op, pc)
			}
			hi := ins[pc+1]
			r[in.Dst] = uint64(uint32(in.Imm)) | uint64(uint32(hi.Imm))<<32
			pc++
		default:
			return 0, fmt.Errorf("%w: class %#x at %d", ErrBadInstr, op, pc)
		}
		pc++
	}
}

func jumpTaken(jop uint8, dst, src uint64) bool {
	switch jop {
	case isa.JmpJEQ:
		return dst == src
	case isa.JmpJNE:
		return dst != src
	case isa.JmpJGT:
		return dst > src
	case isa.JmpJGE:
		return dst >= src
	case isa.JmpJLT:
		return dst < src
	case isa.JmpJLE:
		return dst <= src
	case isa.JmpJSET:
		return dst&src != 0
	case isa.JmpJSGT:
		return int64(dst) > int64(src)
	case isa.JmpJSGE:
		return int64(dst) >= int64(src)
	case isa.JmpJSLT:
		return int64(dst) < int64(src)
	case isa.JmpJSLE:
		return int64(dst) <= int64(src)
	}
	return false
}
