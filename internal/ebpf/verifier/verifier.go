// Package verifier statically checks simulated eBPF programs before
// they are loaded, enforcing the safety rules the paper's design leans
// on (§4.1, §4.4): safe termination (every trip round a loop must change
// the abstract state it is judged by, within a verification budget),
// memory safety (bounds-checked loads/stores, initialized-stack reads),
// null-check enforcement for KF_RET_NULL kfuncs and map lookups,
// reference acquire/release balancing for KF_ACQUIRE/KF_RELEASE, and
// spin-lock coupling for the BPF linked-list helpers.
//
// The checker explores program paths with abstract register states.
// Scalars track known constants and unsigned upper bounds (so masked
// indices verify variable-offset map access, and constant-bounded loops
// unroll); pointers track their region, a known offset, and a variable
// offset bound. At every jump the state is first widened to what a later
// check can still observe (demand.go) and then compared with the states
// already explored there: one whose subtree is finished prunes the path,
// one still being explored is a loop that made no progress.
package verifier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
)

// Options configures verification.
type Options struct {
	// CtxSize is the accessible size of the context (packet) memory
	// pointed to by R1 at entry. Defaults to 64.
	CtxSize int
	// ListNodeSize is the declared payload size of linked-list nodes
	// (the BTF type binding analogue). obj_new must be called with this
	// constant size, and list pops return nodes of this size. 0 forbids
	// list helpers.
	ListNodeSize int
	// StateBudget bounds explored abstract steps; exceeded means the
	// program is too complex or contains an unbounded loop. Defaults to
	// 1<<20.
	StateBudget int
}

// ErrRejected wraps all verification failures.
var ErrRejected = errors.New("verifier: program rejected")

func rejectf(pc int, format string, args ...any) error {
	return fmt.Errorf("%w: at %d: %s", ErrRejected, pc, fmt.Sprintf(format, args...))
}

type regKind uint8

const (
	kUninit regKind = iota
	kScalar
	kPtrStack
	kPtrCtx
	kPtrMapValue
	kPtrMem
	kPtrMap // map object pointer from LD_IMM64
)

const unbounded = ^uint64(0)

type regState struct {
	kind regKind

	// Scalar tracking.
	known   bool
	val     uint64
	umax    uint64
	nonZero bool
	// fromMapMem marks scalars loaded as 8 bytes from map-value memory;
	// after a null check they may be used as kernel-object handles.
	fromMapMem bool

	// Pointer tracking.
	mapIdx    int32
	size      int32 // accessible bytes for kPtrMem
	off       int64
	varMax    uint64
	maybeNull bool

	// refID marks values holding a live acquired reference.
	refID int32
}

func scalarUnknown() regState { return regState{kind: kScalar, umax: unbounded} }

func scalarConst(v uint64) regState {
	return regState{kind: kScalar, known: true, val: v, umax: v, nonZero: v != 0}
}

const maxRefs = 8

type vstate struct {
	pc        int
	regs      [isa.NumRegs]regState
	stackInit [vm.StackSize / 64]uint64
	refs      [maxRefs]int32
	nrefs     int
	lockDepth int
}

func (s *vstate) addRef(id int32) error {
	if s.nrefs >= maxRefs {
		return fmt.Errorf("too many live references (max %d)", maxRefs)
	}
	s.refs[s.nrefs] = id
	s.nrefs++
	return nil
}

func (s *vstate) releaseRef(id int32) bool {
	for i := 0; i < s.nrefs; i++ {
		if s.refs[i] == id {
			s.nrefs--
			s.refs[i] = s.refs[s.nrefs]
			// Invalidate every register still carrying the reference.
			for r := range s.regs {
				if s.regs[r].refID == id {
					s.regs[r] = regState{}
				}
			}
			return true
		}
	}
	return false
}

func (s *vstate) markStack(off int64, n int) {
	for i := int64(0); i < int64(n); i++ {
		b := off + i
		s.stackInit[b/64] |= 1 << (uint(b) % 64)
	}
}

func (s *vstate) stackReady(off int64, n int) bool {
	for i := int64(0); i < int64(n); i++ {
		b := off + i
		if s.stackInit[b/64]&(1<<(uint(b)%64)) == 0 {
			return false
		}
	}
	return true
}

type checker struct {
	vm    *vm.VM
	prog  []isa.Instruction
	opts  Options
	valid []bool // instruction-start positions (not LD_IMM64 hi slots)

	nextRef int32
	steps   int

	// valDemand and bndDemand hold, per pc, the registers whose scalar
	// value (resp. upper bound) a check at or after pc can observe; see
	// demand.go.
	valDemand, bndDemand []regMask

	// seen numbers the canonicalized states reached at jump
	// instructions, in order of first arrival, and open says which of
	// them still have unexplored descendants. Arriving in a state equal
	// to a finished one prunes the path (the states_equal pruning of the
	// kernel verifier, which makes data-dependent loops tractable);
	// arriving in one equal to an open state means the path came back to
	// its own ancestor with nothing changed, so the loop need not end.
	seen map[string]int
	open []bool
	enc  []byte
}

// canonKey serializes st (at its current pc) with reference IDs renamed
// in order of first appearance, so states differing only in opaque
// reference identity compare equal.
func (c *checker) canonKey(st *vstate) string {
	buf := c.enc[:0]
	put64 := func(v uint64) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	var refMap [maxRefs + 1]int32
	nextCanon := int32(1)
	canon := func(id int32) int32 {
		if id == 0 {
			return 0
		}
		for i := int32(1); i < nextCanon; i++ {
			if refMap[i] == id {
				return i
			}
		}
		if nextCanon <= maxRefs {
			refMap[nextCanon] = id
			nextCanon++
			return nextCanon - 1
		}
		return -1
	}
	put64(uint64(st.pc))
	buf = append(buf, byte(st.lockDepth), byte(st.nrefs))
	for i := range st.stackInit {
		put64(st.stackInit[i])
	}
	for r := range st.regs {
		s := &st.regs[r]
		flags := byte(s.kind)
		if s.known {
			flags |= 0x10
		}
		if s.nonZero {
			flags |= 0x20
		}
		if s.fromMapMem {
			flags |= 0x40
		}
		if s.maybeNull {
			flags |= 0x80
		}
		buf = append(buf, flags)
		put64(s.val)
		put64(s.umax)
		put64(uint64(s.mapIdx))
		put64(uint64(s.size))
		put64(uint64(s.off))
		put64(s.varMax)
		put64(uint64(canon(s.refID)))
	}
	c.enc = buf
	return string(buf)
}

// Verify statically checks prog against the maps and kfuncs registered
// in machine. It must run before machine.Load.
func Verify(machine *vm.VM, prog []isa.Instruction, opts Options) error {
	_, err := verify(machine, prog, opts)
	return err
}

// closeMark sits under the successors a run segment pushed on the work
// stack: once the stack is back down to depth, everything reachable from
// the states numbered [lo, hi) has been explored and they stop being
// open.
type closeMark struct{ depth, lo, hi int }

// verify is Verify, also handing back the checker so in-package tests
// can read how much work the exploration took.
func verify(machine *vm.VM, prog []isa.Instruction, opts Options) (*checker, error) {
	if opts.CtxSize == 0 {
		opts.CtxSize = 64
	}
	if opts.StateBudget == 0 {
		opts.StateBudget = 1 << 20
	}
	if len(prog) == 0 {
		return nil, rejectf(0, "empty program")
	}
	c := &checker{
		vm: machine, prog: prog, opts: opts,
		valid: make([]bool, len(prog)),
		seen:  make(map[string]int),
	}
	for i := 0; i < len(prog); i++ {
		c.valid[i] = true
		// Reject out-of-range register fields up front: no instruction
		// class encodes a register >= NumRegs (pseudo-source values on
		// calls and ld_imm64 are all below it), and the per-class steps
		// index the register file with these fields.
		if !prog[i].Dst.Valid() || !prog[i].Src.Valid() {
			return c, rejectf(i, "bad register field (dst r%d, src r%d)", prog[i].Dst, prog[i].Src)
		}
		// ja, call and exit exist in the JMP class only. The executors
		// fall through a JMP32 carrying those op bits, so reading them
		// here as the JMP operation would verify a path that never runs.
		if prog[i].Class() == isa.ClassJMP32 {
			switch prog[i].JmpOp() {
			case isa.JmpJA, isa.JmpCall, isa.JmpExit:
				return c, rejectf(i, "unsupported JMP32 instruction %#x", prog[i].Op)
			}
		}
		if prog[i].IsLoadImm64() {
			if i+1 >= len(prog) {
				return c, rejectf(i, "truncated ld_imm64")
			}
			i++ // hi slot is not a valid jump target
		}
	}
	if !prog[len(prog)-1].IsExit() && prog[len(prog)-1].Class() != isa.ClassJMP {
		return c, rejectf(len(prog)-1, "program does not end with exit or jump")
	}
	c.computeDemand()

	init := vstate{}
	init.regs[isa.R1] = regState{kind: kPtrCtx, size: int32(opts.CtxSize)}
	init.regs[isa.R2] = scalarUnknown()
	init.regs[isa.R10] = regState{kind: kPtrStack, off: vm.StackSize}

	work := []vstate{init}
	var marks []closeMark
	for len(work) > 0 {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		depth, lo := len(work), len(c.open)
		var err error
		if work, err = c.run(&st, work); err != nil {
			return c, err
		}
		if len(work) > 4096 {
			return c, rejectf(st.pc, "branch state explosion (>4096 pending states)")
		}
		if hi := len(c.open); hi > lo {
			marks = append(marks, closeMark{depth, lo, hi})
		}
		for len(marks) > 0 && marks[len(marks)-1].depth == len(work) {
			m := marks[len(marks)-1]
			marks = marks[:len(marks)-1]
			for i := m.lo; i < m.hi; i++ {
				c.open[i] = false
			}
		}
	}
	return c, nil
}

// run advances st until it exits, errors, is pruned, or forks; the
// states a fork leaves to explore are pushed on work.
func (c *checker) run(st *vstate, work []vstate) ([]vstate, error) {
	for {
		c.steps++
		if c.steps > c.opts.StateBudget {
			return work, rejectf(st.pc, "verification budget exhausted: unbounded loop or program too complex (%s)", c.effort())
		}
		if st.pc < 0 || st.pc >= len(c.prog) {
			return work, rejectf(st.pc, "control flow escapes program")
		}
		if !c.valid[st.pc] {
			return work, rejectf(st.pc, "jump into the middle of ld_imm64")
		}
		ins := c.prog[st.pc]
		switch ins.Class() {
		case isa.ClassALU64, isa.ClassALU:
			if err := c.stepALU(st, ins); err != nil {
				return work, err
			}
			st.pc++
		case isa.ClassLD:
			if !ins.IsLoadImm64() {
				return work, rejectf(st.pc, "unsupported LD instruction %#x", ins.Op)
			}
			if err := checkWritable(ins.Dst); err != nil {
				return work, rejectf(st.pc, "%v", err)
			}
			hi := c.prog[st.pc+1]
			v := uint64(uint32(ins.Imm)) | uint64(uint32(hi.Imm))<<32
			if ins.Src == isa.PseudoMapFD {
				m := c.vm.Map(ins.Imm)
				if m == nil {
					return work, rejectf(st.pc, "reference to unknown map fd %d", ins.Imm)
				}
				st.regs[ins.Dst] = regState{kind: kPtrMap, mapIdx: ins.Imm}
			} else {
				st.regs[ins.Dst] = scalarConst(v)
			}
			st.pc += 2
		case isa.ClassLDX:
			if err := c.stepLoad(st, ins); err != nil {
				return work, err
			}
			st.pc++
		case isa.ClassSTX, isa.ClassST:
			if err := c.stepStore(st, ins); err != nil {
				return work, err
			}
			st.pc++
		case isa.ClassJMP, isa.ClassJMP32:
			// Every jump is a prune point. The state is widened first, so
			// the exploration below covers every state that compares
			// equal to it here.
			c.widen(st)
			key := c.canonKey(st)
			if id, dup := c.seen[key]; dup {
				if c.open[id] {
					return work, rejectf(st.pc, "loop makes no progress: the path returns to this jump in the state it left it in (%s)", c.effort())
				}
				return work, nil
			}
			c.seen[key] = len(c.open)
			c.open = append(c.open, true)
			switch ins.JmpOp() {
			case isa.JmpExit:
				return work, c.checkExit(st)
			case isa.JmpCall:
				if err := c.stepCall(st, ins); err != nil {
					return work, err
				}
				st.pc++
			case isa.JmpJA:
				st.pc += int(ins.Off) + 1
			default:
				fork, both, err := c.stepBranch(st, ins)
				if err != nil {
					return work, err
				}
				if both {
					return append(work, *st, fork), nil
				}
				// Single successor: continue in place (st already updated).
			}
		default:
			return work, rejectf(st.pc, "unknown instruction class %#x", ins.Class())
		}
	}
}

// effort summarises the exploration so far for a rejection that is about
// its size or shape: a program whose state count grows quadratically
// shows as one jump holding most of the states.
func (c *checker) effort() string {
	perPC := make([]int, len(c.prog))
	worst := 0
	for key := range c.seen {
		pc := binary.LittleEndian.Uint64([]byte(key[:8])) // canonKey leads with the pc
		perPC[pc]++
	}
	for pc, n := range perPC {
		if n > perPC[worst] {
			worst = pc
		}
	}
	return fmt.Sprintf("%d steps, %d distinct states, %d of them at jump %d", c.steps, len(c.seen), perPC[worst], worst)
}

func checkWritable(r isa.Reg) error {
	if !r.Valid() {
		return fmt.Errorf("bad register r%d", r)
	}
	if r == isa.R10 {
		return errors.New("write to frame pointer r10")
	}
	return nil
}

func satAdd(a, b uint64) uint64 {
	if a == unbounded || b == unbounded || a+b < a {
		return unbounded
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a == unbounded || b == unbounded || a > unbounded/b {
		return unbounded
	}
	return a * b
}

func satShl(a uint64, s uint64) uint64 {
	if a == unbounded || s > 63 || (s > 0 && a > unbounded>>s) {
		return unbounded
	}
	return a << s
}

func (c *checker) stepALU(st *vstate, ins isa.Instruction) error {
	pc := st.pc
	if err := checkWritable(ins.Dst); err != nil {
		return rejectf(pc, "%v", err)
	}
	is32 := ins.Class() == isa.ClassALU
	dst := st.regs[ins.Dst]

	var src regState
	if ins.SrcIsReg() {
		if !ins.Src.Valid() {
			return rejectf(pc, "bad source register")
		}
		src = st.regs[ins.Src]
		if src.kind == kUninit && ins.ALUOp() != isa.ALUNeg {
			return rejectf(pc, "read of uninitialized register %s", ins.Src)
		}
	} else {
		if is32 {
			src = scalarConst(uint64(uint32(ins.Imm)))
		} else {
			src = scalarConst(uint64(int64(ins.Imm)))
		}
	}

	// ALU op codes above arsh (end, and the two undefined ones) have no
	// VM implementation: reject them on every path, not only where the
	// operands are unknown.
	op := ins.ALUOp()
	if op > isa.ALUArsh {
		return rejectf(pc, "unsupported ALU op %#x", op)
	}

	// MOV: propagate full state (including pointers and references).
	if op == isa.ALUMov {
		if is32 {
			// mov32 truncates: pointers degrade to unknown scalars.
			ns := scalarUnknown()
			if src.kind == kScalar {
				ns = src
				ns.known = src.known
				ns.val = uint64(uint32(src.val))
				ns.umax = src.umax
				if ns.umax > uint64(^uint32(0)) {
					ns.umax = uint64(^uint32(0))
				}
				ns.known = src.known
				ns.nonZero = ns.known && ns.val != 0
				ns.refID = 0
			}
			st.regs[ins.Dst] = ns
			return nil
		}
		st.regs[ins.Dst] = src
		return nil
	}

	if op == isa.ALUNeg {
		if dst.kind != kScalar {
			return rejectf(pc, "neg on non-scalar")
		}
		ns := scalarUnknown()
		if dst.known {
			v := -dst.val
			if is32 {
				v = uint64(uint32(-uint32(dst.val)))
			}
			ns = scalarConst(v)
		}
		st.regs[ins.Dst] = ns
		return nil
	}

	if dst.kind == kUninit {
		return rejectf(pc, "read of uninitialized register %s", ins.Dst)
	}

	// Pointer arithmetic: only 64-bit ADD/SUB of a scalar onto a pointer.
	if isPointer(dst.kind) {
		if is32 || (op != isa.ALUAdd && op != isa.ALUSub) || src.kind != kScalar {
			return rejectf(pc, "invalid arithmetic on pointer (%s)", ins)
		}
		np := dst
		np.refID = dst.refID
		if src.known {
			if op == isa.ALUAdd {
				np.off += int64(src.val)
			} else {
				np.off -= int64(src.val)
			}
		} else {
			if op == isa.ALUSub {
				return rejectf(pc, "subtracting unknown scalar from pointer")
			}
			np.varMax = satAdd(np.varMax, src.umax)
		}
		st.regs[ins.Dst] = np
		return nil
	}
	if isPointer(src.kind) {
		// scalar + pointer (64-bit ADD only) yields a pointer, as in the
		// kernel verifier's commutative pointer arithmetic.
		if !is32 && op == isa.ALUAdd && dst.kind == kScalar {
			np := src
			np.refID = src.refID
			if dst.known {
				np.off += int64(dst.val)
			} else {
				np.varMax = satAdd(np.varMax, dst.umax)
			}
			st.regs[ins.Dst] = np
			return nil
		}
		return rejectf(pc, "pointer used as second ALU operand")
	}

	// Division by zero is a property of the instruction, not of what
	// this path knows about its operands: an immediate zero divisor is
	// rejected wherever it is reached, a register divisor never is (the
	// ISA defines x/0 = 0 and x%0 = x).
	if !ins.SrcIsReg() && ins.Imm == 0 {
		switch op {
		case isa.ALUDiv:
			return rejectf(pc, "div by constant zero")
		case isa.ALUMod:
			return rejectf(pc, "mod by constant zero")
		}
	}

	// Scalar arithmetic with constant and bound tracking.
	ns := scalarUnknown()
	if dst.known && src.known {
		v := evalALU(op, dst.val, src.val, is32)
		ns = scalarConst(v)
		st.regs[ins.Dst] = ns
		return nil
	}
	a, b := dst.umax, src.umax
	switch op {
	case isa.ALUAdd:
		ns.umax = satAdd(a, b)
	case isa.ALUMul:
		ns.umax = satMul(a, b)
	case isa.ALUAnd:
		if src.known {
			ns.umax = src.val
		} else {
			ns.umax = minU(a, b)
		}
	case isa.ALUOr, isa.ALUXor:
		// Bounded by next power of two above both.
		ns.umax = orBound(a, b)
	case isa.ALUMod:
		switch {
		case src.known && src.val != 0:
			ns.umax = src.val - 1
		case src.known:
			ns.umax = a
		}
	case isa.ALUDiv:
		switch {
		case !src.known:
			ns.umax = a
		case src.val == 0:
			ns.umax = 0
		case a != unbounded:
			ns.umax = a / src.val
		}
	case isa.ALURsh:
		if src.known && a != unbounded {
			ns.umax = a >> (src.val & 63)
		} else if src.known {
			sh := src.val & 63
			if sh > 0 {
				ns.umax = unbounded >> sh
			}
		}
	case isa.ALULsh:
		if src.known {
			ns.umax = satShl(a, src.val&63)
		}
	case isa.ALUSub, isa.ALUArsh:
		// Result bound unknown.
	}
	if is32 && ns.umax > uint64(^uint32(0)) {
		ns.umax = uint64(^uint32(0))
	}
	st.regs[ins.Dst] = ns
	return nil
}

func evalALU(op uint8, a, b uint64, is32 bool) uint64 {
	if is32 {
		a32, b32 := uint32(a), uint32(b)
		var r uint32
		switch op {
		case isa.ALUAdd:
			r = a32 + b32
		case isa.ALUSub:
			r = a32 - b32
		case isa.ALUMul:
			r = a32 * b32
		case isa.ALUDiv:
			if b32 != 0 {
				r = a32 / b32
			}
		case isa.ALUMod:
			r = a32
			if b32 != 0 {
				r = a32 % b32
			}
		case isa.ALUOr:
			r = a32 | b32
		case isa.ALUAnd:
			r = a32 & b32
		case isa.ALUXor:
			r = a32 ^ b32
		case isa.ALULsh:
			r = a32 << (b32 & 31)
		case isa.ALURsh:
			r = a32 >> (b32 & 31)
		case isa.ALUArsh:
			r = uint32(int32(a32) >> (b32 & 31))
		}
		return uint64(r)
	}
	var r uint64
	switch op {
	case isa.ALUAdd:
		r = a + b
	case isa.ALUSub:
		r = a - b
	case isa.ALUMul:
		r = a * b
	case isa.ALUDiv:
		if b != 0 {
			r = a / b
		}
	case isa.ALUMod:
		r = a
		if b != 0 {
			r = a % b
		}
	case isa.ALUOr:
		r = a | b
	case isa.ALUAnd:
		r = a & b
	case isa.ALUXor:
		r = a ^ b
	case isa.ALULsh:
		r = a << (b & 63)
	case isa.ALURsh:
		r = a >> (b & 63)
	case isa.ALUArsh:
		r = uint64(int64(a) >> (b & 63))
	}
	return r
}

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func orBound(a, b uint64) uint64 {
	m := a
	if b > m {
		m = b
	}
	if m == unbounded {
		return unbounded
	}
	// Round up to all-ones mask.
	m |= m >> 1
	m |= m >> 2
	m |= m >> 4
	m |= m >> 8
	m |= m >> 16
	m |= m >> 32
	return m
}

func isPointer(k regKind) bool {
	return k == kPtrStack || k == kPtrCtx || k == kPtrMapValue || k == kPtrMem
}

// checkAccess validates a memory access of size bytes through reg+off
// and returns the region kind for load semantics.
func (c *checker) checkAccess(st *vstate, r isa.Reg, off int64, size int, write bool) (regKind, int64, error) {
	pc := st.pc
	p := st.regs[r]
	if p.kind == kUninit {
		return 0, 0, rejectf(pc, "memory access through uninitialized register %s", r)
	}
	if p.kind == kScalar {
		return 0, 0, rejectf(pc, "memory access through scalar value in %s", r)
	}
	if p.kind == kPtrMap {
		return 0, 0, rejectf(pc, "direct access to map object pointer")
	}
	if p.maybeNull {
		return 0, 0, rejectf(pc, "access through possibly-NULL pointer in %s (missing null check)", r)
	}
	// No region is anywhere near 4 GiB, so a variable offset that does
	// not fit 32 bits is as good as unbounded; refusing it here also
	// keeps the interval arithmetic below from wrapping.
	if p.varMax > math.MaxUint32 {
		return 0, 0, rejectf(pc, "access through pointer with unbounded variable offset in %s", r)
	}
	lo := p.off + off
	hi := lo + int64(p.varMax) + int64(size)
	var limit int64
	switch p.kind {
	case kPtrStack:
		limit = vm.StackSize
	case kPtrCtx:
		limit = int64(c.opts.CtxSize)
	case kPtrMapValue:
		limit = int64(c.vm.Map(p.mapIdx).ValueSize())
	case kPtrMem:
		limit = int64(p.size)
	}
	if lo < 0 || lo > limit || hi > limit {
		return 0, 0, rejectf(pc, "out-of-bounds access via %s: [%d,%d) outside [0,%d)", r, lo, hi, limit)
	}
	return p.kind, lo, nil
}

func (c *checker) stepLoad(st *vstate, ins isa.Instruction) error {
	if err := checkWritable(ins.Dst); err != nil {
		return rejectf(st.pc, "%v", err)
	}
	size := ins.MemSize()
	kind, lo, err := c.checkAccess(st, ins.Src, int64(ins.Off), size, false)
	if err != nil {
		return err
	}
	if kind == kPtrStack {
		p := st.regs[ins.Src]
		if p.varMax == 0 && !st.stackReady(lo, size) {
			return rejectf(st.pc, "read of uninitialized stack at [%d,%d)", lo, lo+int64(size))
		}
	}
	ns := scalarUnknown()
	if size < 8 {
		ns.umax = 1<<(uint(size)*8) - 1
	}
	if kind == kPtrMapValue && size == 8 {
		ns.fromMapMem = true
	}
	st.regs[ins.Dst] = ns
	return nil
}

func (c *checker) stepStore(st *vstate, ins isa.Instruction) error {
	size := ins.MemSize()
	if ins.Class() == isa.ClassSTX {
		s := st.regs[ins.Src]
		if s.kind == kUninit {
			return rejectf(st.pc, "store of uninitialized register %s", ins.Src)
		}
		if isPointer(s.kind) {
			return rejectf(st.pc, "spilling pointers to memory is not supported")
		}
	}
	kind, lo, err := c.checkAccess(st, ins.Dst, int64(ins.Off), size, true)
	if err != nil {
		return err
	}
	if kind == kPtrStack && st.regs[ins.Dst].varMax == 0 {
		st.markStack(lo, size)
	}
	if kind == kPtrStack && st.regs[ins.Dst].varMax != 0 {
		return rejectf(st.pc, "variable-offset stack store")
	}
	return nil
}

func (c *checker) checkExit(st *vstate) error {
	if st.regs[isa.R0].kind == kUninit {
		return rejectf(st.pc, "R0 not set at exit")
	}
	if st.lockDepth != 0 {
		return rejectf(st.pc, "exit with spin lock held")
	}
	if st.nrefs != 0 {
		return rejectf(st.pc, "exit with %d unreleased reference(s) (resource leak)", st.nrefs)
	}
	return nil
}

// stepBranch evaluates a conditional jump. When the outcome is known it
// updates st in place and reports both=false. Otherwise it refines both
// successors and returns the taken-path state as fork with both=true.
func (c *checker) stepBranch(st *vstate, ins isa.Instruction) (fork vstate, both bool, err error) {
	pc := st.pc
	is32 := ins.Class() == isa.ClassJMP32
	dst := st.regs[ins.Dst]
	if dst.kind == kUninit {
		return fork, false, rejectf(pc, "branch on uninitialized register %s", ins.Dst)
	}
	var src regState
	if ins.SrcIsReg() {
		src = st.regs[ins.Src]
		if src.kind == kUninit {
			return fork, false, rejectf(pc, "branch on uninitialized register %s", ins.Src)
		}
	} else {
		src = scalarConst(uint64(int64(ins.Imm)))
	}

	target := st.pc + int(ins.Off) + 1
	if target < 0 || target >= len(c.prog) || !c.valid[target] {
		return fork, false, rejectf(pc, "bad jump target %d", target)
	}

	op := ins.JmpOp()

	// Pointer null checks: comparisons of a maybe-null pointer (or a
	// candidate handle scalar) against 0.
	if !ins.SrcIsReg() && ins.Imm == 0 && (op == isa.JmpJEQ || op == isa.JmpJNE) {
		if dst.maybeNull || (dst.kind == kScalar && !dst.known) {
			takenNull := op == isa.JmpJEQ
			taken := *st
			taken.pc = target
			st.pc++
			refineNull(&taken, ins.Dst, takenNull)
			refineNull(st, ins.Dst, !takenNull)
			return taken, true, nil
		}
	}

	// Fully known comparison: single successor.
	if dst.kind == kScalar && dst.known && src.kind == kScalar && src.known {
		a, b := dst.val, src.val
		if is32 {
			a, b = uint64(uint32(a)), uint64(uint32(b))
		}
		if condTrue(op, a, b) {
			st.pc = target
		} else {
			st.pc++
		}
		return fork, false, nil
	}

	if isPointer(dst.kind) && op != isa.JmpJEQ && op != isa.JmpJNE {
		return fork, false, rejectf(pc, "ordered comparison on pointer")
	}

	// Unknown: fork, refining unsigned bounds against constants.
	taken := *st
	taken.pc = target
	st.pc++
	if dst.kind == kScalar && src.known && !is32 {
		k := src.val
		switch op {
		case isa.JmpJLT: // taken: dst < k
			boundMax(&taken.regs[ins.Dst], k-1, k > 0)
			boundMin(&st.regs[ins.Dst], k)
		case isa.JmpJLE:
			boundMax(&taken.regs[ins.Dst], k, true)
		case isa.JmpJGE: // not taken: dst < k
			boundMax(&st.regs[ins.Dst], k-1, k > 0)
		case isa.JmpJGT: // not taken: dst <= k
			boundMax(&st.regs[ins.Dst], k, true)
		case isa.JmpJSGE:
			// Common loop guard `jsge ctr, n` with positive n: the
			// not-taken path has ctr < n as a signed value, which bounds
			// it as an unsigned one only if it cannot be negative.
			if int64(k) > 0 && dst.umax <= math.MaxInt64 {
				boundMax(&st.regs[ins.Dst], k-1, true)
			}
		case isa.JmpJEQ:
			taken.regs[ins.Dst] = scalarConst(k)
		case isa.JmpJNE:
			st.regs[ins.Dst] = scalarConst(k)
		}
	}
	return taken, true, nil
}

func boundMax(r *regState, k uint64, valid bool) {
	if !valid || r.kind != kScalar {
		return
	}
	if k < r.umax {
		r.umax = k
	}
}

func boundMin(r *regState, k uint64) {
	if r.kind == kScalar && k > 0 {
		r.nonZero = true
	}
}

// refineNull applies the outcome of a ==0 / !=0 check to a register.
// Proving an acquired maybe-null value to be NULL drops its pending
// reference (a failed acquire returns nothing to release).
func refineNull(st *vstate, r isa.Reg, isNull bool) {
	reg := &st.regs[r]
	if isNull {
		if reg.refID != 0 {
			st.releaseRef(reg.refID)
		}
		*reg = scalarConst(0)
		return
	}
	if reg.maybeNull {
		reg.maybeNull = false
		return
	}
	if reg.kind == kScalar {
		reg.nonZero = true
	}
}

func condTrue(op uint8, a, b uint64) bool {
	switch op {
	case isa.JmpJEQ:
		return a == b
	case isa.JmpJNE:
		return a != b
	case isa.JmpJGT:
		return a > b
	case isa.JmpJGE:
		return a >= b
	case isa.JmpJLT:
		return a < b
	case isa.JmpJLE:
		return a <= b
	case isa.JmpJSET:
		return a&b != 0
	case isa.JmpJSGT:
		return int64(a) > int64(b)
	case isa.JmpJSGE:
		return int64(a) >= int64(b)
	case isa.JmpJSLT:
		return int64(a) < int64(b)
	case isa.JmpJSLE:
		return int64(a) <= int64(b)
	}
	return false
}

// LoadAndVerify verifies prog and, on success, links it into machine.
func LoadAndVerify(machine *vm.VM, name string, prog []isa.Instruction, opts Options) (*vm.Program, error) {
	if err := Verify(machine, prog, opts); err != nil {
		return nil, fmt.Errorf("program %q: %w", name, err)
	}
	return machine.Load(name, prog)
}

// mapOf returns the map referenced by a kPtrMap register.
func (c *checker) mapOf(st *vstate, r isa.Reg) (maps.ArenaMap, int32, error) {
	p := st.regs[r]
	if p.kind != kPtrMap {
		return nil, 0, rejectf(st.pc, "%s is not a map pointer", r)
	}
	return c.vm.Map(p.mapIdx), p.mapIdx, nil
}
