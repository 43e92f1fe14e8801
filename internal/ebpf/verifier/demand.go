package verifier

import "enetstl/internal/ebpf/isa"

// Precision demand: which scalar registers can a later check still
// observe?
//
// Pruning compares whole register files, so two states that differ only
// in a scalar nothing will ever look at again are explored twice. A
// min-scan that keeps the index of its minimum in a register is the
// worst case: the index is a known constant, one per candidate, and the
// loop is walked once per (iteration, argmin) pair. The kernel verifier
// solves this with precision tracking; the analogue here is a static
// backward pass over the control-flow graph, run once per Verify, that
// computes for every instruction two register sets:
//
//   - value demand: the register's abstract value can reach a branch
//     operand or one of the five call-argument registers, where a known
//     constant decides which way verification goes;
//   - bound demand: the register can reach the base register of a load
//     or store, where only its upper bound is checked.
//
// Both kinds flow backwards through mov and through the inputs of every
// ALU operation. They differ in one rule: `and reg, imm` with a
// non-negative immediate cuts bound demand, because the mask
// re-establishes the bound whatever the register held, while value
// demand passes through it.
//
// At a prune point every scalar with neither demand (and no live
// reference) is widened to an unknown scalar before the state is
// compared and before exploration continues from it. Widening only
// forgets facts, so every check downstream sees a superset of the
// concrete states it saw before: the pass can cost acceptance of a
// program (an index that reaches memory only through a mask is now
// checked against the mask, not against the constants it happened to
// hold), never grant it.

// regMask is a set of registers, bit r standing for register r.
type regMask uint16

func bit(r isa.Reg) regMask { return 1 << r }

const (
	// callerSaved is R0-R5, rewritten by every call; callArgs is R1-R5.
	callerSaved regMask = 1<<(isa.R5+1) - 1
	callArgs            = callerSaved &^ (1 << isa.R0)
)

// successors returns the instructions control can reach from pc: next
// is the fall-through (for ja, its target), taken the target of a
// conditional branch. -1 stands for none; targets are returned as
// encoded, so either may lie outside the program.
func successors(prog []isa.Instruction, pc int) (next, taken int) {
	ins := prog[pc]
	target := pc + int(ins.Off) + 1
	switch {
	case ins.IsLoadImm64():
		return pc + 2, -1
	case ins.IsExit():
		return -1, -1
	case ins.Class() != isa.ClassJMP && ins.Class() != isa.ClassJMP32, ins.IsCall():
		return pc + 1, -1
	case ins.JmpOp() == isa.JmpJA:
		return target, -1
	}
	return pc + 1, target
}

// demandBefore maps the demand after ins to the demand before it.
func demandBefore(ins isa.Instruction, val, bnd regMask) (regMask, regMask) {
	dst := bit(ins.Dst)
	switch ins.Class() {
	case isa.ClassALU64, isa.ClassALU:
		// The result is observable through whatever it was computed from.
		var inputs regMask
		if ins.ALUOp() != isa.ALUMov {
			inputs = dst
		}
		if ins.SrcIsReg() {
			inputs |= bit(ins.Src)
		}
		if val&dst != 0 {
			val = val&^dst | inputs
		}
		if ins.ALUOp() == isa.ALUAnd && !ins.SrcIsReg() && ins.Imm >= 0 {
			bnd &^= dst
		} else if bnd&dst != 0 {
			bnd = bnd&^dst | inputs
		}
	case isa.ClassLD:
		val, bnd = val&^dst, bnd&^dst
	case isa.ClassLDX:
		val, bnd = val&^dst, bnd&^dst|bit(ins.Src)
	case isa.ClassST, isa.ClassSTX:
		bnd |= dst
	case isa.ClassJMP, isa.ClassJMP32:
		switch ins.JmpOp() {
		case isa.JmpExit:
			return 0, 0
		case isa.JmpJA:
		case isa.JmpCall:
			val, bnd = val&^callerSaved|callArgs, bnd&^callerSaved
		default:
			val |= dst
			if ins.SrcIsReg() {
				val |= bit(ins.Src)
			}
		}
	}
	return val, bnd
}

// computeDemand fills valDemand and bndDemand: reverse sweeps over the
// program until nothing changes (one sweep for straight-line code, one
// more per level of loop nesting).
func (c *checker) computeDemand() {
	n := len(c.prog)
	masks := make([]regMask, 2*n)
	c.valDemand, c.bndDemand = masks[:n], masks[n:]
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			if !c.valid[pc] {
				continue
			}
			var val, bnd regMask
			next, taken := successors(c.prog, pc)
			for _, s := range [2]int{next, taken} {
				if s >= 0 && s < n {
					val |= c.valDemand[s]
					bnd |= c.bndDemand[s]
				}
			}
			val, bnd = demandBefore(c.prog[pc], val, bnd)
			if val != c.valDemand[pc] || bnd != c.bndDemand[pc] {
				c.valDemand[pc], c.bndDemand[pc] = val, bnd
				changed = true
			}
		}
	}
}

// widen forgets, at the prune point st stands on, every scalar no later
// check can observe.
func (c *checker) widen(st *vstate) {
	keep := c.valDemand[st.pc] | c.bndDemand[st.pc]
	for r := range st.regs {
		s := &st.regs[r]
		if s.kind == kScalar && s.refID == 0 && keep&bit(isa.Reg(r)) == 0 {
			*s = scalarUnknown()
		}
	}
}
