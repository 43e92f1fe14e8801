package vm

// Block-compiled execution tier (TierJIT). The decoded flat IR is split
// into basic blocks — leaders at the entry point, at every potential
// branch target (the same conservative bitmap the peephole fuser
// honors), and at every fall-through edge a branch creates — and each
// block is compiled once into Go closures that execute the whole block
// straight-line: register file and stack accessed directly through
// jitState, helper/kfunc calls inlined through the dense tables, and
// branches resolved to direct next-block pointers, so a taken edge is a
// pointer return instead of a pc arithmetic + dispatch round trip.
//
// Parity with the wire loop is the contract, exactly as for execFast:
// results, errors and their text, InsnCount, RegSink, lock accounting.
// Budget is handled by pre-charging a block's full cost on entry. When
// the remaining budget cannot cover a block, the driver re-enters the
// resumable predecoded loop (fastLoop) at the block's start pc, which
// retires instructions one at a time and reports exhaustion — including
// the half-retired effects of fused pairs — exactly where the wire loop
// would. When a closure faults mid-block, it records how much of the
// pre-charge must be refunded so the net charge equals the wire loop's.
//
// One superinstruction sits on top of the per-unit closures: runs of
// helper or kfunc calls, each with its map-pointer and key-address
// set-up, compile into one closure (combineCalls). Everything else is
// one closure per unit under the generic block driver.

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/ebpf/isa"
)

// blockFn executes one compiled basic block against the machine state
// and returns the successor block (nil at program exit) or an error.
type blockFn func(*VM, *jitState) (*jitBlock, error)

// jitBlock is one compiled basic block.
type jitBlock struct {
	fn    blockFn
	start int32 // first wire pc; fastLoop resumes here on budget underrun
	cost  int32 // budget units the driver pre-charges
}

// jitProg is the block-compiled form of a Program, keyed by leader pc.
type jitProg struct {
	entry  *jitBlock
	blocks map[int]*jitBlock
}

// jitState is the machine state block closures execute against. One
// instance lives in the VM so running a program never allocates.
type jitState struct {
	r      [16]uint64
	stk    []byte
	ret    uint64
	refund int32 // pre-charged budget units to return after a fault
}

// jitUnit is one non-terminating instruction (or fused pair) inside a
// block: either an infallible straight-line op or a fallible one that
// reports the wire loop's error.
type jitUnit struct {
	inf func(*jitState)
	fal func(*VM, *jitState) error
}

// execJIT is Run's TierJIT path. Compilation is lazy and latched:
// programs without a predecoded stream run the wire loop (same registers
// the predecoder refused), and a refused compilation falls back to the
// predecoded interpreter without retrying per packet.
func (vm *VM) execJIT(p *Program, ctx []byte) (uint64, error) {
	if p.dec == nil {
		return vm.exec(p, ctx, nil)
	}
	if p.jit == nil {
		if p.jitTried {
			return vm.execFast(p, ctx, nil)
		}
		p.jitTried = true
		p.jit = compileJIT(vm, p)
		if p.jit == nil {
			return vm.execFast(p, ctx, nil)
		}
	}
	vm.regions[vm.ctxID].data = ctx
	st := &vm.jst
	clear(st.r[:])
	st.r[isa.R1] = vm.ctxID << RegionShift
	st.r[isa.R2] = uint64(len(ctx))
	st.r[isa.R10] = vm.stackID<<RegionShift + StackSize
	st.stk = vm.regions[vm.stackID].data
	st.refund = 0
	budget := vm.Budget

	b := p.jit.entry
	for {
		if budget < int(b.cost) {
			// The block would exhaust the budget somewhere inside; the
			// resumable predecoded loop retires exactly what the wire loop
			// would, including fused-pair first halves.
			ret, rem, err := vm.fastLoop(p, nil, &st.r, st.stk, int(b.start), budget)
			vm.InsnCount += uint64(vm.Budget - rem)
			return ret, err
		}
		budget -= int(b.cost)
		nb, err := b.fn(vm, st)
		if err != nil {
			budget += int(st.refund)
			st.refund = 0
			vm.InsnCount += uint64(vm.Budget - budget)
			return 0, err
		}
		if nb == nil {
			vm.InsnCount += uint64(vm.Budget - budget)
			return st.ret, nil
		}
		b = nb
	}
}

type jitCompiler struct {
	vm     *VM
	p      *Program
	dec    []decodedInsn // p.dec with every run head read as its first instruction
	tgt    []bool        // conservative branch-target bitmap over the wire stream
	blocks map[int]*jitBlock
}

func compileJIT(vm *VM, p *Program) *jitProg {
	c := &jitCompiler{
		vm:     vm,
		p:      p,
		dec:    make([]decodedInsn, len(p.dec)),
		tgt:    isa.BranchTargets(p.ins),
		blocks: make(map[int]*jitBlock),
	}
	for pc := range p.dec {
		c.dec[pc] = headAlone(p.dec[pc])
	}
	// Eager blocks at every potential branch target keep the leader set a
	// superset of the jump targets even for edges only reachable through
	// data-dependent branches the compiler cannot see taken.
	for pc, isTgt := range c.tgt {
		if isTgt {
			c.getBlock(pc)
		}
	}
	return &jitProg{entry: c.getBlock(0), blocks: c.blocks}
}

// getBlock returns the (memoized) block starting at pc, compiling it on
// first use. The entry is registered before compilation so branch
// cycles resolve to the block being built. Out-of-range pcs compile to
// an error block reproducing the wire loop's report; the wire loop
// checks budget before the pc range and never charges an out-of-range
// pc, so the driver's unit pre-charge is refunded in full.
func (c *jitCompiler) getBlock(pc int) *jitBlock {
	if b, ok := c.blocks[pc]; ok {
		return b
	}
	b := &jitBlock{start: int32(pc)}
	c.blocks[pc] = b
	if pc < 0 || pc >= len(c.dec) {
		b.cost = 1
		err := fmt.Errorf("%w: pc %d out of range", ErrBadInstr, pc)
		b.fn = func(vm *VM, st *jitState) (*jitBlock, error) {
			st.refund = 1
			return nil, err
		}
		return b
	}
	c.build(b, pc)
	return b
}

// isJITTerm reports whether kind ends a basic block: exits, jumps
// (conditional or not) and malformed instructions (which terminate
// execution with an error).
func isJITTerm(k uint8) bool {
	return k >= kJa && k <= kJset32Reg || k == kExit || k == kBad
}

// unitWidthCost returns how many decoded slots a unit occupies and how
// many budget units it charges, mirroring the fastLoop pc advance and
// per-slot accounting.
func unitWidthCost(d *decodedInsn) (w, cost int32) {
	switch d.kind {
	case kLd64:
		return 2, 1
	case kFuseLea, kFuseMovHelper, kFuseMovKfunc, kFuseAlu2:
		return 2, 2
	}
	return 1, 1
}

// unitMeta records one unit's decoded form, wire pc, and budget cost
// while a block is being compiled. Generic ALU pairs are decomposed
// back into their halves (synthetic decodedInsns) so each half gets its
// own specialised closure instead of two trips through aluApply.
type unitMeta struct {
	d    *decodedInsn
	pc   int
	cost int32
}

// walkUnits collects the unit metas of the block starting at start,
// stopping at a terminator or leader boundary. Returns the metas, their
// total budget cost (terminator excluded), the terminator pc (-1 for a
// pure fall-through block), and the fall-through pc.
func (c *jitCompiler) walkUnits(start int) (ms []unitMeta, cost int32, term, end int) {
	dec := c.dec
	pc := start
	term = -1
	for {
		if pc != start && (pc >= len(dec) || c.tgt[pc]) {
			break
		}
		d := &dec[pc]
		if isJITTerm(d.kind) {
			term = pc
			break
		}
		w, uc := unitWidthCost(d)
		if d.kind == kFuseAlu2 {
			// Decompose the generic pair into its halves, reconstructing
			// exactly the operands the interpreter feeds aluApply; each half
			// charges one budget unit, preserving the prefix sums. The
			// packed immB sign-extends through int32; kMov32Imm is the one
			// kind whose closure uses the immediate unmasked, so restore the
			// decoder's zero-extension for it (aluApply re-zero-extends).
			cc := uint32(d.call)
			immB := uint64(int64(d.off))
			if uint8(cc>>8) == kMov32Imm {
				immB = uint64(uint32(d.off))
			}
			ha := &decodedInsn{kind: uint8(cc), dst: d.dst, src: d.src, imm: d.imm}
			hb := &decodedInsn{kind: uint8(cc >> 8), dst: uint8(cc >> 16), src: uint8(cc >> 24),
				imm: immB}
			ms = append(ms,
				unitMeta{d: ha, pc: pc, cost: 1},
				unitMeta{d: hb, pc: pc + 1, cost: 1})
		} else {
			ms = append(ms, unitMeta{d: d, pc: pc, cost: uc})
		}
		cost += uc
		pc += int(w)
	}
	return ms, cost, term, pc
}

// build compiles the block starting at start: walk units until a
// terminator or a leader boundary, total the budget cost, then
// construct the closures with fault refunds resolved against the final
// cost. Short all-infallible bodies (every such block the catalog
// compiles has at most four units) are unrolled into dedicated
// straight-line closures; anything else runs the generic unit loop.
func (c *jitCompiler) build(b *jitBlock, start int) {
	ms, cost, term, pc := c.walkUnits(start)
	if term >= 0 {
		cost++
	}
	b.cost = cost

	units, allInf := c.buildUnits(ms, cost)

	var tail blockFn
	if term >= 0 {
		tail = c.buildTail(term)
	} else {
		nb := c.getBlock(pc)
		tail = func(vm *VM, st *jitState) (*jitBlock, error) { return nb, nil }
	}

	if !allInf {
		us := units
		b.fn = func(vm *VM, st *jitState) (*jitBlock, error) {
			for i := range us {
				if f := us[i].inf; f != nil {
					f(st)
				} else if err := us[i].fal(vm, st); err != nil {
					return nil, err
				}
			}
			return tail(vm, st)
		}
		return
	}
	switch len(units) {
	case 0:
		b.fn = tail
	case 1:
		f0 := units[0].inf
		b.fn = func(vm *VM, st *jitState) (*jitBlock, error) {
			f0(st)
			return tail(vm, st)
		}
	case 2:
		f0, f1 := units[0].inf, units[1].inf
		b.fn = func(vm *VM, st *jitState) (*jitBlock, error) {
			f0(st)
			f1(st)
			return tail(vm, st)
		}
	case 3:
		f0, f1, f2 := units[0].inf, units[1].inf, units[2].inf
		b.fn = func(vm *VM, st *jitState) (*jitBlock, error) {
			f0(st)
			f1(st)
			f2(st)
			return tail(vm, st)
		}
	case 4:
		f0, f1, f2, f3 := units[0].inf, units[1].inf, units[2].inf, units[3].inf
		b.fn = func(vm *VM, st *jitState) (*jitBlock, error) {
			f0(st)
			f1(st)
			f2(st)
			f3(st)
			return tail(vm, st)
		}
	default:
		fs := make([]func(*jitState), len(units))
		for i, u := range units {
			fs[i] = u.inf
		}
		b.fn = func(vm *VM, st *jitState) (*jitBlock, error) {
			for _, f := range fs {
				f(st)
			}
			return tail(vm, st)
		}
	}
}

// buildUnits turns the block's unit metas into closures, combining
// call runs into one closure. Combining never changes the cumulative
// budget prefix ahead of a fallible unit, so fault refunds stay exact.
func (c *jitCompiler) buildUnits(ms []unitMeta, cost int32) ([]jitUnit, bool) {
	var units []jitUnit
	allInf := true
	var cum int32
	for i := 0; i < len(ms); {
		d := ms[i].d
		if d.kind == kNop {
			// Budget-only: the wire fall-through has no effect, and the
			// block pre-charge already covers it.
			cum += ms[i].cost
			i++
			continue
		}
		if f, n := c.combineCalls(ms, i, cost, cum); f != nil {
			units = append(units, jitUnit{fal: f})
			for k := 0; k < n; k++ {
				cum += ms[i+k].cost
			}
			i += n
			allInf = false
			continue
		}
		if f := c.infallible(d); f != nil {
			units = append(units, jitUnit{inf: f})
		} else {
			// A faulting unit charges its prefix plus what the wire loop
			// charges for the faulting instruction itself; the rest of the
			// block's pre-charge is refunded.
			charged := int32(1)
			if d.kind == kFuseMovHelper || d.kind == kFuseMovKfunc {
				charged = 2
			}
			units = append(units, jitUnit{fal: c.fallible(d, ms[i].pc, cost-cum-charged)})
			allInf = false
		}
		cum += ms[i].cost
		i++
	}
	return units, allInf
}

// callStep is one call of a combined call run, optionally preceded by
// its (ld64 map-pointer, lea key-address) argument setup.
type callStep struct {
	hasLea        bool
	ldd, led, les uint8
	ldi, lei      uint64
	idx, id       int32
	rf            int32
	pc            int32
	in            isa.Instruction
}

// combineCalls recognizes runs of helper or kfunc call groups — a bare
// call, or the canonical map-lookup triple (ld64 map pointer, fused
// lea of the key slot, call) — and compiles the whole run into one
// fallible closure, returning it and how many unit metas it consumed
// (nil, 0 when no run starts at i). Collapsing the run removes the
// per-unit dispatch between calls; each step still faults with the
// exact refund, pc, and instruction its standalone closure would, so
// error text and InsnCount are unchanged.
func (c *jitCompiler) combineCalls(ms []unitMeta, i int, cost, cum int32) (func(*VM, *jitState) error, int) {
	kind := uint8(0)
	var steps []callStep
	j := i
	for j < len(ms) {
		s := callStep{}
		k := j
		if ms[k].d.kind == kLd64 && k+1 < len(ms) && ms[k+1].d.kind == kFuseLea {
			ld, le := ms[k].d, ms[k+1].d
			s.hasLea = true
			s.ldd, s.ldi = ld.dst&15, ld.imm
			s.led, s.les, s.lei = le.dst&15, le.src&15, le.imm
			cum += ms[k].cost + ms[k+1].cost
			k += 2
		}
		if k >= len(ms) {
			break
		}
		d := ms[k].d
		if d.kind != kCallHelper && d.kind != kCallKfunc {
			break
		}
		if kind == 0 {
			kind = d.kind
		} else if d.kind != kind {
			break
		}
		s.idx, s.id = d.call, int32(uint32(d.imm))
		s.pc = int32(ms[k].pc)
		s.in = c.p.ins[ms[k].pc]
		s.rf = cost - cum - 1
		cum += ms[k].cost
		steps = append(steps, s)
		j = k + 1
	}
	// A single bare call gains nothing over its standalone closure.
	if len(steps) == 0 || (len(steps) == 1 && !steps[0].hasLea) {
		return nil, 0
	}
	if kind == kCallHelper {
		return func(vm *VM, st *jitState) error {
			for k := range steps {
				s := &steps[k]
				if s.hasLea {
					st.r[s.ldd] = s.ldi
					st.r[s.led] = st.r[s.les] + s.lei
				}
				var v uint64
				var e error
				if fn := vm.helperTab[s.idx]; fn != nil && vm.curProg == nil && !vm.sampled {
					v, e = fn(vm, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
				} else {
					v, e = vm.invokeHelper(s.idx, s.id, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
				}
				if e != nil {
					return jitFault(st, s.rf, int(s.pc), s.in, e)
				}
				st.r[0] = v
				st.r[1], st.r[2], st.r[3], st.r[4], st.r[5] = 0, 0, 0, 0, 0
			}
			return nil
		}, j - i
	}
	return func(vm *VM, st *jitState) error {
		for k := range steps {
			s := &steps[k]
			if s.hasLea {
				st.r[s.ldd] = s.ldi
				st.r[s.led] = st.r[s.les] + s.lei
			}
			var v uint64
			var e error
			if kf := vm.kfuncTab[s.idx]; kf != nil && vm.curProg == nil && vm.kfuncFault == nil && !vm.sampled {
				v, e = kf.Impl(vm, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
				if e != nil {
					e = fmt.Errorf("kfunc %s: %w", kf.Name, e)
					v = 0
				}
			} else {
				v, e = vm.invokeKfunc(s.idx, s.id, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
			}
			if e != nil {
				return jitFault(st, s.rf, int(s.pc), s.in, e)
			}
			st.r[0] = v
			st.r[1], st.r[2], st.r[3], st.r[4], st.r[5] = 0, 0, 0, 0, 0
		}
		return nil
	}, j - i
}

// infallible compiles a unit that cannot fault into a straight-line
// closure, or returns nil for fallible kinds. Each closure reproduces
// the corresponding fastLoop dispatch case on captured operands; the
// &15 masks keep register accesses bounds-check free, exactly as in the
// interpreter loops.
func (c *jitCompiler) infallible(d *decodedInsn) func(*jitState) {
	dst, src, imm := d.dst, d.src, d.imm
	off := d.off
	switch d.kind {
	case kAddImm:
		return func(st *jitState) { st.r[dst&15] += imm }
	case kAddReg:
		return func(st *jitState) { st.r[dst&15] += st.r[src&15] }
	case kSubImm:
		return func(st *jitState) { st.r[dst&15] -= imm }
	case kSubReg:
		return func(st *jitState) { st.r[dst&15] -= st.r[src&15] }
	case kMulImm:
		return func(st *jitState) { st.r[dst&15] *= imm }
	case kMulReg:
		return func(st *jitState) { st.r[dst&15] *= st.r[src&15] }
	case kDivImm:
		return func(st *jitState) { st.r[dst&15] /= imm } // imm==0 decodes to kMovImm 0
	case kDivReg:
		return func(st *jitState) {
			if s := st.r[src&15]; s != 0 {
				st.r[dst&15] /= s
			} else {
				st.r[dst&15] = 0
			}
		}
	case kModImm:
		return func(st *jitState) { st.r[dst&15] %= imm } // imm==0 decodes to kNop
	case kModReg:
		return func(st *jitState) {
			if s := st.r[src&15]; s != 0 {
				st.r[dst&15] %= s
			}
		}
	case kOrImm:
		return func(st *jitState) { st.r[dst&15] |= imm }
	case kOrReg:
		return func(st *jitState) { st.r[dst&15] |= st.r[src&15] }
	case kAndImm:
		return func(st *jitState) { st.r[dst&15] &= imm }
	case kAndReg:
		return func(st *jitState) { st.r[dst&15] &= st.r[src&15] }
	case kLshImm:
		return func(st *jitState) { st.r[dst&15] <<= imm }
	case kLshReg:
		return func(st *jitState) { st.r[dst&15] <<= st.r[src&15] & 63 }
	case kRshImm:
		return func(st *jitState) { st.r[dst&15] >>= imm }
	case kRshReg:
		return func(st *jitState) { st.r[dst&15] >>= st.r[src&15] & 63 }
	case kArshImm:
		return func(st *jitState) { st.r[dst&15] = uint64(int64(st.r[dst&15]) >> imm) }
	case kArshReg:
		return func(st *jitState) { st.r[dst&15] = uint64(int64(st.r[dst&15]) >> (st.r[src&15] & 63)) }
	case kXorImm:
		return func(st *jitState) { st.r[dst&15] ^= imm }
	case kXorReg:
		return func(st *jitState) { st.r[dst&15] ^= st.r[src&15] }
	case kMovImm:
		return func(st *jitState) { st.r[dst&15] = imm }
	case kMovReg:
		return func(st *jitState) { st.r[dst&15] = st.r[src&15] }
	case kNeg:
		return func(st *jitState) { st.r[dst&15] = -st.r[dst&15] }

	case kAdd32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) + uint32(imm)) }
	case kAdd32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) + uint32(st.r[src&15])) }
	case kSub32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) - uint32(imm)) }
	case kSub32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) - uint32(st.r[src&15])) }
	case kMul32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) * uint32(imm)) }
	case kMul32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) * uint32(st.r[src&15])) }
	case kDiv32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) / uint32(imm)) }
	case kDiv32Reg:
		return func(st *jitState) {
			if s := uint32(st.r[src&15]); s != 0 {
				st.r[dst&15] = uint64(uint32(st.r[dst&15]) / s)
			} else {
				st.r[dst&15] = 0
			}
		}
	case kMod32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) % uint32(imm)) }
	case kMod32Reg:
		return func(st *jitState) {
			if s := uint32(st.r[src&15]); s != 0 {
				st.r[dst&15] = uint64(uint32(st.r[dst&15]) % s)
			} else {
				st.r[dst&15] = uint64(uint32(st.r[dst&15]))
			}
		}
	case kOr32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) | uint32(imm)) }
	case kOr32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) | uint32(st.r[src&15])) }
	case kAnd32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) & uint32(imm)) }
	case kAnd32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) & uint32(st.r[src&15])) }
	case kLsh32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) << uint32(imm)) }
	case kLsh32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) << (uint32(st.r[src&15]) & 31)) }
	case kRsh32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) >> uint32(imm)) }
	case kRsh32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) >> (uint32(st.r[src&15]) & 31)) }
	case kArsh32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(int32(uint32(st.r[dst&15])) >> uint32(imm))) }
	case kArsh32Reg:
		return func(st *jitState) {
			st.r[dst&15] = uint64(uint32(int32(uint32(st.r[dst&15])) >> (uint32(st.r[src&15]) & 31)))
		}
	case kXor32Imm:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) ^ uint32(imm)) }
	case kXor32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15]) ^ uint32(st.r[src&15])) }
	case kMov32Imm:
		return func(st *jitState) { st.r[dst&15] = imm }
	case kMov32Reg:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[src&15])) }
	case kNeg32:
		return func(st *jitState) { st.r[dst&15] = uint64(-uint32(st.r[dst&15])) }
	case kZext32:
		return func(st *jitState) { st.r[dst&15] = uint64(uint32(st.r[dst&15])) }

	case kLd64:
		return func(st *jitState) { st.r[dst&15] = imm }

	case kLdxStack1:
		return func(st *jitState) { st.r[dst&15] = uint64(st.stk[off]) }
	case kLdxStack2:
		return func(st *jitState) { st.r[dst&15] = uint64(leU16(st.stk[off:])) }
	case kLdxStack4:
		return func(st *jitState) { st.r[dst&15] = uint64(leU32(st.stk[off:])) }
	case kLdxStack8:
		return func(st *jitState) { st.r[dst&15] = leU64(st.stk[off:]) }
	case kStxStack1:
		return func(st *jitState) { st.stk[off] = byte(st.r[src&15]) }
	case kStxStack2:
		return func(st *jitState) { putU16(st.stk[off:], uint16(st.r[src&15])) }
	case kStxStack4:
		return func(st *jitState) { putU32(st.stk[off:], uint32(st.r[src&15])) }
	case kStxStack8:
		return func(st *jitState) { putU64(st.stk[off:], st.r[src&15]) }
	case kStStack1:
		return func(st *jitState) { st.stk[off] = byte(imm) }
	case kStStack2:
		return func(st *jitState) { putU16(st.stk[off:], uint16(imm)) }
	case kStStack4:
		return func(st *jitState) { putU32(st.stk[off:], uint32(imm)) }
	case kStStack8:
		return func(st *jitState) { putU64(st.stk[off:], imm) }

	case kFuseLea:
		return func(st *jitState) { st.r[dst&15] = st.r[src&15] + imm }
	}
	return nil
}

// jitFault records the budget refund for a mid-block fault and wraps
// the error with the wire loop's instruction context.
func jitFault(st *jitState, rf int32, pc int, in isa.Instruction, e error) error {
	st.refund = rf
	return fmt.Errorf("at %d (%s): %w", pc, in, e)
}

// fallible compiles a unit that can fault. rf is the number of
// pre-charged budget units to refund if it does, computed so the net
// charge equals what the wire loop retires up to and including the
// faulting instruction.
func (c *jitCompiler) fallible(d *decodedInsn, pc int, rf int32) func(*VM, *jitState) error {
	dst, src, imm := d.dst, d.src, d.imm
	off := uint64(int64(d.off))
	in := c.p.ins[pc]
	switch d.kind {
	case kLdx1:
		return func(vm *VM, st *jitState) error {
			b, e := vm.Bytes(st.r[src&15]+off, 1)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			st.r[dst&15] = uint64(b[0])
			return nil
		}
	case kLdx2:
		return func(vm *VM, st *jitState) error {
			b, e := vm.Bytes(st.r[src&15]+off, 2)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			st.r[dst&15] = uint64(leU16(b))
			return nil
		}
	case kLdx4:
		return func(vm *VM, st *jitState) error {
			b, e := vm.Bytes(st.r[src&15]+off, 4)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			st.r[dst&15] = uint64(leU32(b))
			return nil
		}
	case kLdx8:
		return func(vm *VM, st *jitState) error {
			b, e := vm.Bytes(st.r[src&15]+off, 8)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			st.r[dst&15] = leU64(b)
			return nil
		}
	case kStx1:
		return func(vm *VM, st *jitState) error {
			b, e := vm.wbytes(st.r[dst&15]+off, 1)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			b[0] = byte(st.r[src&15])
			return nil
		}
	case kStx2:
		return func(vm *VM, st *jitState) error {
			b, e := vm.wbytes(st.r[dst&15]+off, 2)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			putU16(b, uint16(st.r[src&15]))
			return nil
		}
	case kStx4:
		return func(vm *VM, st *jitState) error {
			b, e := vm.wbytes(st.r[dst&15]+off, 4)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			putU32(b, uint32(st.r[src&15]))
			return nil
		}
	case kStx8:
		return func(vm *VM, st *jitState) error {
			b, e := vm.wbytes(st.r[dst&15]+off, 8)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			putU64(b, st.r[src&15])
			return nil
		}
	case kSt1:
		return func(vm *VM, st *jitState) error {
			b, e := vm.wbytes(st.r[dst&15]+off, 1)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			b[0] = byte(imm)
			return nil
		}
	case kSt2:
		return func(vm *VM, st *jitState) error {
			b, e := vm.wbytes(st.r[dst&15]+off, 2)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			putU16(b, uint16(imm))
			return nil
		}
	case kSt4:
		return func(vm *VM, st *jitState) error {
			b, e := vm.wbytes(st.r[dst&15]+off, 4)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			putU32(b, uint32(imm))
			return nil
		}
	case kSt8:
		return func(vm *VM, st *jitState) error {
			b, e := vm.wbytes(st.r[dst&15]+off, 8)
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			putU64(b, imm)
			return nil
		}
	case kCallHelper:
		idx := d.call
		id := int32(uint32(imm))
		return func(vm *VM, st *jitState) error {
			var v uint64
			var e error
			if fn := vm.helperTab[idx]; fn != nil && vm.curProg == nil && !vm.sampled {
				v, e = fn(vm, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
			} else {
				v, e = vm.invokeHelper(idx, id, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
			}
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			st.r[0] = v
			st.r[1], st.r[2], st.r[3], st.r[4], st.r[5] = 0, 0, 0, 0, 0
			return nil
		}
	case kCallKfunc:
		idx := d.call
		id := int32(uint32(imm))
		return func(vm *VM, st *jitState) error {
			var v uint64
			var e error
			if k := vm.kfuncTab[idx]; k != nil && vm.curProg == nil && vm.kfuncFault == nil && !vm.sampled {
				v, e = k.Impl(vm, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
				if e != nil {
					e = fmt.Errorf("kfunc %s: %w", k.Name, e)
					v = 0
				}
			} else {
				v, e = vm.invokeKfunc(idx, id, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
			}
			if e != nil {
				return jitFault(st, rf, pc, in, e)
			}
			st.r[0] = v
			st.r[1], st.r[2], st.r[3], st.r[4], st.r[5] = 0, 0, 0, 0, 0
			return nil
		}
	case kFuseMovHelper:
		idx := d.call
		id := int32(uint32(imm))
		in1 := c.p.ins[pc+1]
		return func(vm *VM, st *jitState) error {
			st.r[dst&15] = st.r[src&15]
			var v uint64
			var e error
			if fn := vm.helperTab[idx]; fn != nil && vm.curProg == nil && !vm.sampled {
				v, e = fn(vm, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
			} else {
				v, e = vm.invokeHelper(idx, id, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
			}
			if e != nil {
				return jitFault(st, rf, pc+1, in1, e)
			}
			st.r[0] = v
			st.r[1], st.r[2], st.r[3], st.r[4], st.r[5] = 0, 0, 0, 0, 0
			return nil
		}
	case kFuseMovKfunc:
		idx := d.call
		id := int32(uint32(imm))
		in1 := c.p.ins[pc+1]
		return func(vm *VM, st *jitState) error {
			st.r[dst&15] = st.r[src&15]
			var v uint64
			var e error
			if k := vm.kfuncTab[idx]; k != nil && vm.curProg == nil && vm.kfuncFault == nil && !vm.sampled {
				v, e = k.Impl(vm, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
				if e != nil {
					e = fmt.Errorf("kfunc %s: %w", k.Name, e)
					v = 0
				}
			} else {
				v, e = vm.invokeKfunc(idx, id, st.r[1], st.r[2], st.r[3], st.r[4], st.r[5])
			}
			if e != nil {
				return jitFault(st, rf, pc+1, in1, e)
			}
			st.r[0] = v
			st.r[1], st.r[2], st.r[3], st.r[4], st.r[5] = 0, 0, 0, 0, 0
			return nil
		}
	}
	// Unreachable: every kind is either infallible, fallible, or a
	// terminator; fail loudly at compile time rather than silently
	// diverging from the interpreter.
	panic(fmt.Sprintf("vm: jit: unhandled decoded kind %d at pc %d", d.kind, pc))
}

// buildTail compiles a block terminator: program exit, malformed
// instruction, or a branch resolved to direct next-block pointers.
func (c *jitCompiler) buildTail(pc int) blockFn {
	d := &c.dec[pc]
	switch d.kind {
	case kExit:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if vm.RegSink != nil {
				copy(vm.RegSink[:], st.r[:])
			}
			if vm.lockHeld != 0 {
				vm.lockHeld = 0
				vm.lockWord = 0
				return nil, ErrLockImbalance
			}
			st.ret = st.r[0]
			return nil, nil
		}
	case kBad:
		err := badInsnErr(c.p.ins[pc], pc)
		return func(vm *VM, st *jitState) (*jitBlock, error) { return nil, err }
	case kJa:
		tb := c.getBlock(int(d.tgt))
		return func(vm *VM, st *jitState) (*jitBlock, error) { return tb, nil }
	}
	return c.condTail(d, pc)
}

// condTail compiles a conditional branch into a dedicated
// compare-and-branch closure returning direct block pointers.
func (c *jitCompiler) condTail(d *decodedInsn, pc int) blockFn {
	dst, src, imm := d.dst, d.src, d.imm
	tb := c.getBlock(int(d.tgt))
	fb := c.getBlock(pc + 1)
	switch d.kind {
	case kJeqImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] == imm {
				return tb, nil
			}
			return fb, nil
		}
	case kJeqReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] == st.r[src&15] {
				return tb, nil
			}
			return fb, nil
		}
	case kJneImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] != imm {
				return tb, nil
			}
			return fb, nil
		}
	case kJneReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] != st.r[src&15] {
				return tb, nil
			}
			return fb, nil
		}
	case kJgtImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] > imm {
				return tb, nil
			}
			return fb, nil
		}
	case kJgtReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] > st.r[src&15] {
				return tb, nil
			}
			return fb, nil
		}
	case kJgeImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] >= imm {
				return tb, nil
			}
			return fb, nil
		}
	case kJgeReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] >= st.r[src&15] {
				return tb, nil
			}
			return fb, nil
		}
	case kJltImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] < imm {
				return tb, nil
			}
			return fb, nil
		}
	case kJltReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] < st.r[src&15] {
				return tb, nil
			}
			return fb, nil
		}
	case kJleImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] <= imm {
				return tb, nil
			}
			return fb, nil
		}
	case kJleReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15] <= st.r[src&15] {
				return tb, nil
			}
			return fb, nil
		}
	case kJsetImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15]&imm != 0 {
				return tb, nil
			}
			return fb, nil
		}
	case kJsetReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if st.r[dst&15]&st.r[src&15] != 0 {
				return tb, nil
			}
			return fb, nil
		}
	case kJsgtImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if int64(st.r[dst&15]) > int64(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJsgtReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if int64(st.r[dst&15]) > int64(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJsgeImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if int64(st.r[dst&15]) >= int64(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJsgeReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if int64(st.r[dst&15]) >= int64(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJsltImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if int64(st.r[dst&15]) < int64(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJsltReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if int64(st.r[dst&15]) < int64(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJsleImm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if int64(st.r[dst&15]) <= int64(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJsleReg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if int64(st.r[dst&15]) <= int64(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}

	case kJeq32Imm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) == uint32(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJeq32Reg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) == uint32(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJne32Imm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) != uint32(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJne32Reg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) != uint32(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJgt32Imm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) > uint32(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJgt32Reg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) > uint32(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJge32Imm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) >= uint32(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJge32Reg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) >= uint32(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJlt32Imm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) < uint32(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJlt32Reg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) < uint32(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJle32Imm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) <= uint32(imm) {
				return tb, nil
			}
			return fb, nil
		}
	case kJle32Reg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15]) <= uint32(st.r[src&15]) {
				return tb, nil
			}
			return fb, nil
		}
	case kJset32Imm:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15])&uint32(imm) != 0 {
				return tb, nil
			}
			return fb, nil
		}
	case kJset32Reg:
		return func(vm *VM, st *jitState) (*jitBlock, error) {
			if uint32(st.r[dst&15])&uint32(st.r[src&15]) != 0 {
				return tb, nil
			}
			return fb, nil
		}
	}
	// Unreachable for terminator kinds routed here; keep the interpreter
	// fall-through ("not taken") if it ever is.
	return func(vm *VM, st *jitState) (*jitBlock, error) { return fb, nil }
}

// Little-endian accessors, aliases over encoding/binary kept short so
// closure bodies stay single-line. The binary package forms compile to
// single load/store instructions.
func leU16(b []byte) uint16     { return binary.LittleEndian.Uint16(b) }
func leU32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func leU64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
