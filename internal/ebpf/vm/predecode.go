package vm

// Predecoded fast-path interpreter. Load translates the wire-format
// instruction stream once into []decodedInsn — opcode kind resolved to
// a dense dispatch index, jump targets pre-shifted to absolute pcs,
// immediates sign- or zero-extended, helper/kfunc IDs resolved to dense
// table slots — and execFast runs a flat single-level switch over it.
// A peephole fuser additionally collapses the hot adjacent pairs the NF
// catalog actually executes (address computation feeding a call, any
// two same-class ALU ops) into single super-ops, and lowers the
// map-lookup call site and five other multi-instruction idioms (the
// hash mix's xorshift, constant pairs, counter bumps, masked indexed
// loads, counted-loop back edges) to one dispatch each.
//
// The wire-format loop in vm.go stays as the selectable reference slow
// path (SetTier(TierWire)); the two must be observably identical, and the
// differential suite cross-checks them instruction for instruction.

import (
	"encoding/binary"
	"fmt"

	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
)

// Two deliberate layout decisions keep the dispatch loop lean:
//
//   - decodedInsn is 24 bytes, so field loads stay within at most two
//     cache lines per dispatch and the slot address is a cheap scaled
//     index. There is no fall-through field: the loop advances pc by
//     constants (fused pairs and ld_imm64 advance one extra slot) or, in
//     a run, by the width its head records.
//   - Register operands are masked with &15 against a 16-slot file, so
//     every access is bounds-check free. That is sound because
//     predecode refuses (returns a nil stream, falling back to the wire
//     loop) any program naming a register outside the architectural
//     file — for the programs it accepts, the mask is the identity.
type decodedInsn struct {
	imm  uint64 // extended immediate / fused-pair packed operands
	off  int32  // memory offset; second-half immediate for kFuseAlu2
	tgt  int32  // taken-branch target pc
	call int32  // dense helper/kfunc table index
	kind uint8  // dispatch kind (k* constants)
	dst  uint8
	src  uint8 // source register
	cls  uint8 // wire instruction class (OpClass attribution)
}

// Dispatch kinds. Conditional-jump kinds come in Imm/Reg pairs with Reg
// == Imm+1; the decoder relies on that adjacency.
const (
	kBad uint8 = iota // malformed: raises ErrBadInstr with the wire text
	kNop              // wire-defined fall-through (mod-by-zero imm, never-taken jmp32 ops)

	// 64-bit ALU.
	kAddImm
	kAddReg
	kSubImm
	kSubReg
	kMulImm
	kMulReg
	kDivImm
	kDivReg
	kModImm
	kModReg
	kOrImm
	kOrReg
	kAndImm
	kAndReg
	kLshImm
	kLshReg
	kRshImm
	kRshReg
	kArshImm
	kArshReg
	kXorImm
	kXorReg
	kMovImm
	kMovReg
	kNeg

	// 32-bit ALU (results zero-extended, as in the wire loop).
	kAdd32Imm
	kAdd32Reg
	kSub32Imm
	kSub32Reg
	kMul32Imm
	kMul32Reg
	kDiv32Imm
	kDiv32Reg
	kMod32Imm
	kMod32Reg
	kOr32Imm
	kOr32Reg
	kAnd32Imm
	kAnd32Reg
	kLsh32Imm
	kLsh32Reg
	kRsh32Imm
	kRsh32Reg
	kArsh32Imm
	kArsh32Reg
	kXor32Imm
	kXor32Reg
	kMov32Imm
	kMov32Reg
	kNeg32
	kZext32 // mod32-by-zero immediate: the wire loop still zero-extends dst

	// 64-bit jumps.
	kJa
	kJeqImm
	kJeqReg
	kJneImm
	kJneReg
	kJgtImm
	kJgtReg
	kJgeImm
	kJgeReg
	kJltImm
	kJltReg
	kJleImm
	kJleReg
	kJsetImm
	kJsetReg
	kJsgtImm
	kJsgtReg
	kJsgeImm
	kJsgeReg
	kJsltImm
	kJsltReg
	kJsleImm
	kJsleReg

	// 32-bit jumps. The wire loop zero-extends both operands before the
	// signed comparison, so jsgt32 and friends reduce to the unsigned
	// kinds; the decoder aliases them.
	kJeq32Imm
	kJeq32Reg
	kJne32Imm
	kJne32Reg
	kJgt32Imm
	kJgt32Reg
	kJge32Imm
	kJge32Reg
	kJlt32Imm
	kJlt32Reg
	kJle32Imm
	kJle32Reg
	kJset32Imm
	kJset32Reg

	kCallHelper
	kCallKfunc
	kExit
	kLd64

	// Loads/stores, width resolved at decode time.
	kLdx1
	kLdx2
	kLdx4
	kLdx8
	kStx1
	kStx2
	kStx4
	kStx8
	kSt1
	kSt2
	kSt4
	kSt8

	// R10-relative accesses whose slot is provably inside the stack at
	// decode time (off holds the resolved slot). Only emitted when no
	// instruction in the program writes R10, so the base is the frame
	// pointer the wire loop would use.
	kLdxStack1
	kLdxStack2
	kLdxStack4
	kLdxStack8
	kStxStack1
	kStxStack2
	kStxStack4
	kStxStack8
	kStStack1
	kStStack2
	kStStack4
	kStStack8

	// Fused pairs (two wire instructions, two budget units). Each kind
	// here occurs in a catalog NF's program; TestFusedKindsOccurInCatalog
	// fails for one that does not.
	kFuseLea       // mov dst,src ; add dst,imm => dst = src + imm
	kFuseMovHelper // mov dst,src ; call helper
	kFuseMovKfunc  // mov dst,src ; call kfunc
	kFuseAlu2      // any two same-class ALU ops (generic superinstruction)

	// The map-lookup call site as one dispatch (4-5 wire instructions,
	// 4-5 budget units):
	//
	//	ld_imm64 r1,map ; mov r2,r10 ; add r2,off ; call map_lookup_elem [; jne|jeq r0,0,tgt]
	//
	// The head slot keeps the ld_imm64's own dst and imm, so executing the
	// head alone — what every fallback does, and how the jit reads the
	// slot — is exactly the standalone ld_imm64; the absorbed slots keep
	// their standalone decodings. off is the lea offset, src the folded
	// null check's kind (0: none) and tgt its target.
	kRunLookup // call = helper slot: any map type, through the registered helper
	// The pointer names a maps.Array and the key slot is inside the frame:
	// off = key slot, call = fd; the element pointer is formed inline.
	kRunLookupArray

	// Idiom runs: one dispatch, one budget unit per wire instruction
	// covered. As with the lookup runs, the head slot keeps the standalone
	// operands of its first instruction (headAlone) and the absorbed slots
	// keep their standalone decodings; the rest of the idiom is packed into
	// the head's fields its first instruction leaves unused.
	kRunXorshift  // mov t,x ; rsh t,K ; xor x,t [; mul x,c] (t != x): imm = K, off = units (3|4), call = c
	kRunConstPair // ld_imm64 ; ld_imm64: the second is read from its own slot
	kRunBump      // ldx d,[b+off] ; add d,K ; stx [b+off],d (d != b): imm = K, call = width
	// mov a,i ; [rsh a,R] ; [and a,M] ; [lsh a,S] ; [add a,b] ; [add a,K] ;
	// ldx d,[a+off], at least one step, a != b: a = ((i>>R)&M)<<S + b + K.
	// imm = M (^0 if absent), off = the load's off, tgt = K, call = R |
	// S<<6 | b<<12 (15, always 0, if absent) | d<<16 | log2 width<<20 |
	// units<<24
	kRunIndexLoad
	// add i,K ; ja ; and the jsge y,imm the ja lands on (a counted loop's
	// back edge and test): tgt = the ja's target, src = y, off = imm, call
	// = the jsge's target
	kRunLoop

	kindCount // one past the last kind
)

// predecode translates a resolved wire stream into the decoded IR and
// runs the peephole fuser, returning the stream and the number of
// pairs fused. Helper/kfunc call slots are resolved against this VM,
// so a Program is runnable only on the VM that loaded it (true of the
// wire path too, which resolves map pointers against the loading VM).
//
// A program naming a register outside the architectural file anywhere
// is refused (nil stream): the wire loop faults on such registers only
// at the exact access, and rather than replicate the panic ordering the
// fast path leaves those programs to the reference loop.
func (vm *VM) predecode(ins []isa.Instruction) ([]decodedInsn, int) {
	r10ok := true
	for _, in := range ins {
		if in.Dst >= isa.NumRegs || in.Src >= isa.NumRegs {
			return nil, 0
		}
		// R10 is read-only for verified programs, but the interpreter can
		// run unverified ones: stack-resolved addressing is only sound if
		// nothing in the program can move the frame pointer.
		if in.Dst == isa.R10 {
			switch in.Op & 0x07 {
			case isa.ClassALU64, isa.ClassALU, isa.ClassLDX, isa.ClassLD:
				r10ok = false
			}
		}
	}
	dec := make([]decodedInsn, len(ins))
	for pc := range ins {
		dec[pc] = vm.decodeOne(ins, pc, r10ok)
	}
	return dec, vm.fusePairs(ins, dec, r10ok)
}

// stackSlot resolves an R10-relative access to a stack offset, or -1 if
// the access is not provably inside the frame.
func stackSlot(off int16, size int) int32 {
	slot := StackSize + int(off)
	if slot < 0 || slot+size > StackSize {
		return -1
	}
	return int32(slot)
}

func (vm *VM) decodeOne(ins []isa.Instruction, pc int, r10ok bool) decodedInsn {
	in := ins[pc]
	op := in.Op
	d := decodedInsn{
		dst: uint8(in.Dst),
		src: uint8(in.Src),
		cls: op & 0x07,
	}
	pick := func(imm, reg uint8) {
		if op&0x08 != 0 {
			d.kind = reg
		} else {
			d.kind = imm
			d.imm = uint64(int64(in.Imm))
		}
	}
	switch op & 0x07 {
	case isa.ClassALU64:
		switch op & 0xf0 {
		case isa.ALUAdd:
			pick(kAddImm, kAddReg)
		case isa.ALUSub:
			pick(kSubImm, kSubReg)
		case isa.ALUMul:
			pick(kMulImm, kMulReg)
		case isa.ALUDiv:
			pick(kDivImm, kDivReg)
			if d.kind == kDivImm && in.Imm == 0 {
				d.kind = kMovImm // div-by-zero immediate: dst = 0
			}
		case isa.ALUMod:
			pick(kModImm, kModReg)
			if d.kind == kModImm && in.Imm == 0 {
				d.kind = kNop // mod-by-zero: dst unchanged
			}
		case isa.ALUOr:
			pick(kOrImm, kOrReg)
		case isa.ALUAnd:
			pick(kAndImm, kAndReg)
		case isa.ALULsh:
			pick(kLshImm, kLshReg)
			d.imm &= 63
		case isa.ALURsh:
			pick(kRshImm, kRshReg)
			d.imm &= 63
		case isa.ALUArsh:
			pick(kArshImm, kArshReg)
			d.imm &= 63
		case isa.ALUXor:
			pick(kXorImm, kXorReg)
		case isa.ALUMov:
			pick(kMovImm, kMovReg)
		case isa.ALUNeg:
			d.kind = kNeg
		default:
			d.kind = kBad
		}
	case isa.ClassALU:
		pick32 := func(imm, reg uint8) {
			if op&0x08 != 0 {
				d.kind = reg
			} else {
				d.kind = imm
				d.imm = uint64(uint32(in.Imm))
			}
		}
		switch op & 0xf0 {
		case isa.ALUAdd:
			pick32(kAdd32Imm, kAdd32Reg)
		case isa.ALUSub:
			pick32(kSub32Imm, kSub32Reg)
		case isa.ALUMul:
			pick32(kMul32Imm, kMul32Reg)
		case isa.ALUDiv:
			pick32(kDiv32Imm, kDiv32Reg)
			if d.kind == kDiv32Imm && in.Imm == 0 {
				d.kind = kMov32Imm // dst = 0, zero-extended
			}
		case isa.ALUMod:
			pick32(kMod32Imm, kMod32Reg)
			if d.kind == kMod32Imm && in.Imm == 0 {
				d.kind = kZext32
			}
		case isa.ALUOr:
			pick32(kOr32Imm, kOr32Reg)
		case isa.ALUAnd:
			pick32(kAnd32Imm, kAnd32Reg)
		case isa.ALULsh:
			pick32(kLsh32Imm, kLsh32Reg)
			d.imm &= 31
		case isa.ALURsh:
			pick32(kRsh32Imm, kRsh32Reg)
			d.imm &= 31
		case isa.ALUArsh:
			pick32(kArsh32Imm, kArsh32Reg)
			d.imm &= 31
		case isa.ALUXor:
			pick32(kXor32Imm, kXor32Reg)
		case isa.ALUMov:
			pick32(kMov32Imm, kMov32Reg)
		case isa.ALUNeg:
			d.kind = kNeg32
		default:
			d.kind = kBad
		}
	case isa.ClassJMP:
		jop := op & 0xf0
		switch jop {
		case isa.JmpExit:
			d.kind = kExit
		case isa.JmpCall:
			if in.Src == isa.PseudoKfuncCall {
				d.kind = kCallKfunc
				d.call = vm.kfuncSlot(in.Imm)
			} else {
				d.kind = kCallHelper
				d.call = vm.helperSlot(in.Imm)
			}
			d.imm = uint64(uint32(in.Imm))
		case isa.JmpJA:
			d.kind = kJa
			d.tgt = int32(pc + 1 + int(in.Off))
		case 0xe0, 0xf0:
			d.kind = kNop // jumpTaken default: never taken
		default:
			var base uint8
			switch jop {
			case isa.JmpJEQ:
				base = kJeqImm
			case isa.JmpJNE:
				base = kJneImm
			case isa.JmpJGT:
				base = kJgtImm
			case isa.JmpJGE:
				base = kJgeImm
			case isa.JmpJLT:
				base = kJltImm
			case isa.JmpJLE:
				base = kJleImm
			case isa.JmpJSET:
				base = kJsetImm
			case isa.JmpJSGT:
				base = kJsgtImm
			case isa.JmpJSGE:
				base = kJsgeImm
			case isa.JmpJSLT:
				base = kJsltImm
			case isa.JmpJSLE:
				base = kJsleImm
			}
			d.tgt = int32(pc + 1 + int(in.Off))
			if op&0x08 != 0 {
				d.kind = base + 1
			} else {
				d.kind = base
				d.imm = uint64(int64(in.Imm))
			}
		}
	case isa.ClassJMP32:
		var base uint8
		switch op & 0xf0 {
		case isa.JmpJEQ:
			base = kJeq32Imm
		case isa.JmpJNE:
			base = kJne32Imm
		case isa.JmpJGT, isa.JmpJSGT:
			base = kJgt32Imm
		case isa.JmpJGE, isa.JmpJSGE:
			base = kJge32Imm
		case isa.JmpJLT, isa.JmpJSLT:
			base = kJlt32Imm
		case isa.JmpJLE, isa.JmpJSLE:
			base = kJle32Imm
		case isa.JmpJSET:
			base = kJset32Imm
		default:
			// ja/call/exit bits in JMP32 fall through in the wire loop.
			d.kind = kNop
			return d
		}
		d.tgt = int32(pc + 1 + int(in.Off))
		if op&0x08 != 0 {
			d.kind = base + 1
		} else {
			d.kind = base
			d.imm = uint64(uint32(in.Imm))
		}
	case isa.ClassLDX:
		d.off = int32(in.Off)
		sz := in.MemSize()
		d.kind = kLdx1 + uint8(sizeLog2(sz))
		if r10ok && in.Src == isa.R10 {
			if slot := stackSlot(in.Off, sz); slot >= 0 {
				d.kind = kLdxStack1 + uint8(sizeLog2(sz))
				d.off = slot
			}
		}
	case isa.ClassSTX:
		d.off = int32(in.Off)
		sz := in.MemSize()
		d.kind = kStx1 + uint8(sizeLog2(sz))
		if r10ok && in.Dst == isa.R10 {
			if slot := stackSlot(in.Off, sz); slot >= 0 {
				d.kind = kStxStack1 + uint8(sizeLog2(sz))
				d.off = slot
			}
		}
	case isa.ClassST:
		d.off = int32(in.Off)
		d.imm = uint64(int64(in.Imm))
		sz := in.MemSize()
		d.kind = kSt1 + uint8(sizeLog2(sz))
		if r10ok && in.Dst == isa.R10 {
			if slot := stackSlot(in.Off, sz); slot >= 0 {
				d.kind = kStStack1 + uint8(sizeLog2(sz))
				d.off = slot
			}
		}
	case isa.ClassLD:
		if !in.IsLoadImm64() || pc+1 >= len(ins) {
			d.kind = kBad
			break
		}
		d.kind = kLd64
		d.imm = uint64(uint32(in.Imm)) | uint64(uint32(ins[pc+1].Imm))<<32
	}
	return d
}

// sizeLog2 maps a memory access width (1/2/4/8) to 0..3, the offset of
// the per-width kind within its group.
func sizeLog2(size int) int {
	switch size {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	}
	return 3
}

// fusePairs rewrites dec in place, collapsing adjacent hot pairs into
// super-ops, and idioms of two to five instructions into runs. A pair
// or run is fusable only when no branch can land on a slot past its
// head; the absorbed slots keep their standalone decodings, so the
// guard is the only control-flow condition. Returns the number of
// super-ops formed.
//
// Three passes, each over what the earlier ones left unfused: the
// specific pairs (with the lookup runs that extend kFuseLea), the idiom
// runs, then any remaining adjacent same-class ALU pair collapses into
// the generic kFuseAlu2 superinstruction.
func (vm *VM) fusePairs(ins []isa.Instruction, dec []decodedInsn, r10ok bool) int {
	const (
		movReg = isa.ClassALU64 | isa.SrcX | isa.ALUMov
		addImm = isa.ClassALU64 | isa.SrcK | isa.ALUAdd
		call   = isa.ClassJMP | isa.JmpCall
	)
	tgt := isa.BranchTargets(ins)
	fused := 0
	for i := 0; i+1 < len(ins); i++ {
		if dec[i].kind == kLd64 {
			i++ // occupies two slots; the pair window must not straddle it
			continue
		}
		if tgt[i+1] {
			continue
		}
		a, b := ins[i], ins[i+1]
		d := &dec[i]
		switch {
		case a.Op == movReg && b.Op == addImm && b.Dst == a.Dst:
			*d = decodedInsn{kind: kFuseLea, dst: uint8(a.Dst), src: uint8(a.Src),
				imm: uint64(int64(b.Imm)), cls: isa.ClassALU64}
			if vm.fuseLookupRun(dec, tgt, i, r10ok) {
				fused++
			}
		case a.Op == movReg && b.Op == call:
			kind := kFuseMovHelper
			if b.Src == isa.PseudoKfuncCall {
				kind = kFuseMovKfunc
			}
			*d = decodedInsn{kind: kind, dst: uint8(a.Dst), src: uint8(a.Src),
				call: dec[i+1].call, imm: dec[i+1].imm, cls: isa.ClassALU64}
		default:
			continue
		}
		fused++
		i++
	}
	// Pass 2: idiom runs. Walking unit starts (span) keeps the scan off
	// the absorbed halves pass 1 left behind.
	for i := 0; i < len(ins); i += span(&dec[i]) {
		if fuseRun(dec, tgt, i) {
			fused++
		}
	}
	// Pass 3: generic ALU pairing over whatever is still standalone.
	for i := 0; i+1 < len(ins); i += span(&dec[i]) {
		if tgt[i+1] || dec[i].kind == kLd64 || dec[i].kind >= kFuseLea || dec[i+1].kind == kLd64 ||
			dec[i+1].kind >= kFuseLea || dec[i].kind == kBad || dec[i+1].kind == kBad {
			continue
		}
		cl := ins[i].Op & 0x07
		if (cl != isa.ClassALU64 && cl != isa.ClassALU) || ins[i+1].Op&0x07 != cl {
			continue
		}
		// Same class on both halves so OpClass attribution needs no extra
		// field; immB round-trips through int32 because every decoded ALU
		// immediate is int32-derived (aluApply re-extends per width).
		da, db := dec[i], dec[i+1]
		dec[i] = decodedInsn{kind: kFuseAlu2, dst: da.dst, src: da.src, imm: da.imm,
			off:  int32(db.imm),
			call: int32(da.kind) | int32(db.kind)<<8 | int32(db.dst)<<16 | int32(db.src)<<24,
			cls:  cl}
		fused++
	}
	return fused
}

// span is how many slots the fuser's walk steps over at a unit start:
// two for ld_imm64, the pairs and the back-edge run, the width of the
// other idiom runs. A lookup run's head spans only its ld_imm64 (its lea
// is a unit of its own).
func span(d *decodedInsn) int {
	switch d.kind {
	case kRunXorshift:
		return int(d.off)
	case kRunConstPair:
		return 4
	case kRunBump:
		return 3
	case kRunIndexLoad:
		return int(uint32(d.call) >> 24)
	}
	if d.kind == kLd64 || d.kind >= kFuseLea {
		return 2
	}
	return 1
}

// fuseRun rewrites the standalone slot dec[i] into the head of the idiom
// run starting there (see kRunXorshift and the kinds after it), if one
// does and no branch lands past its head. Every absorbed slot is matched
// on its standalone decoded kind, so nothing pass 1 fused is absorbed
// and every immediate is the one the standalone decode folded.
func fuseRun(dec []decodedInsn, tgt []bool, i int) bool {
	at := func(j int, kind uint8) *decodedInsn {
		if j >= len(dec) || tgt[j] || dec[j].kind != kind {
			return nil
		}
		return &dec[j]
	}
	h := &dec[i]
	switch h.kind {
	case kMovReg:
		t, x := h.dst, h.src // the mov's dst and src
		if t == x {
			return false
		}
		sh, xr := at(i+1, kRshImm), at(i+2, kXorReg)
		if sh != nil && sh.dst == t && xr != nil && xr.dst == x && xr.src == t {
			h.kind, h.imm, h.off = kRunXorshift, sh.imm, 3
			if m := at(i+3, kMulReg); m != nil && m.dst == x {
				h.off, h.call = 4, int32(m.src)
			}
			return true
		}
		// The address steps, each at most once and in this order.
		shr, mask, shl, b, k, j := uint64(0), ^uint64(0), uint64(0), uint8(15), int32(0), i+1
	steps:
		for step := 0; j < len(dec) && !tgt[j] && dec[j].dst == t; j++ {
			switch e := &dec[j]; {
			case e.kind == kRshImm && step < 1:
				shr, step = e.imm, 1
			case e.kind == kAndImm && step < 2:
				mask, step = e.imm, 2
			case e.kind == kLshImm && step < 3:
				shl, step = e.imm, 3
			case e.kind == kAddReg && step < 4 && e.src != t:
				b, step = e.src, 4
			case e.kind == kAddImm && step < 5:
				k, step = int32(e.imm), 5
			default:
				break steps
			}
		}
		if j == i+1 || j >= len(dec) || tgt[j] || dec[j].kind < kLdx1 || dec[j].kind > kLdx8 || dec[j].src != t {
			return false
		}
		ld := &dec[j]
		h.kind, h.imm, h.off, h.tgt = kRunIndexLoad, mask, ld.off, k
		h.call = int32(shr) | int32(shl)<<6 | int32(b)<<12 | int32(ld.dst)<<16 |
			int32(ld.kind-kLdx1)<<20 | int32(j-i+1)<<24
		return true
	case kLdx1, kLdx2, kLdx4, kLdx8:
		add, st := at(i+1, kAddImm), at(i+2, h.kind-kLdx1+kStx1)
		if h.dst == h.src || add == nil || add.dst != h.dst || st == nil || st.dst != h.src ||
			st.src != h.dst || st.off != h.off {
			return false
		}
		h.kind, h.imm, h.call = kRunBump, add.imm, 1<<(h.kind-kLdx1)
		return true
	case kLd64:
		if i+3 >= len(dec) || tgt[i+1] || tgt[i+3] || at(i+2, kLd64) == nil {
			return false
		}
		h.kind = kRunConstPair
		return true
	case kAddImm:
		ja := at(i+1, kJa)
		if ja == nil || ja.tgt < 0 || int(ja.tgt) >= len(dec) || dec[ja.tgt].kind != kJsgeImm {
			return false
		}
		j := &dec[ja.tgt]
		h.kind, h.tgt, h.src, h.off, h.call = kRunLoop, ja.tgt, j.dst, int32(j.imm), j.tgt
		return true
	}
	return false
}

// headAlone is what a run head executes as when the run does not: the
// standalone decoding of its first instruction. The jit compiles every
// head this way.
func headAlone(d decodedInsn) decodedInsn {
	switch d.kind {
	case kRunLookup, kRunLookupArray, kRunConstPair:
		return decodedInsn{kind: kLd64, dst: d.dst, imm: d.imm, cls: d.cls}
	case kRunXorshift, kRunIndexLoad:
		return decodedInsn{kind: kMovReg, dst: d.dst, src: d.src, cls: d.cls}
	case kRunBump:
		return decodedInsn{kind: kLdx1 + uint8(sizeLog2(int(d.call))), dst: d.dst, src: d.src, off: d.off, cls: d.cls}
	case kRunLoop:
		return decodedInsn{kind: kAddImm, dst: d.dst, imm: d.imm, cls: d.cls}
	}
	return d
}

// fuseLookupRun rewrites the ld_imm64 two slots ahead of the fused lea
// at dec[lea] into a lookup run head when the lea is the key argument of
// a map_lookup_elem call site (see kRunLookup) that no branch enters
// past its head; the trailing null check is folded in when no branch
// lands on it either.
func (vm *VM) fuseLookupRun(dec []decodedInsn, tgt []bool, lea int, r10ok bool) bool {
	head, call := lea-2, lea+2
	if head < 0 || call >= len(dec) || tgt[head+1] || tgt[lea] || tgt[call] {
		return false
	}
	h, l, c := &dec[head], dec[lea], dec[call]
	if h.kind != kLd64 || h.dst != uint8(isa.R1) || l.dst != uint8(isa.R2) || l.src != uint8(isa.R10) ||
		c.kind != kCallHelper || int32(uint32(c.imm)) != HelperMapLookup {
		return false
	}
	h.kind, h.off, h.call = kRunLookup, int32(l.imm), c.call
	if chk := call + 1; chk < len(dec) && !tgt[chk] && dec[chk].dst == uint8(isa.R0) && dec[chk].imm == 0 &&
		(dec[chk].kind == kJneImm || dec[chk].kind == kJeqImm) {
		h.src, h.tgt = dec[chk].kind, dec[chk].tgt
	}
	// The typed variant: the pointer names an array map (re-checked per
	// run, WrapMaps can interpose later) and the 4-byte key is in the frame.
	if id := h.imm >> RegionShift; r10ok && h.imm&offMask == 0 && id < uint64(len(vm.regions)) &&
		vm.regions[id].kind == regMap {
		fd := vm.regions[id].fd
		if _, ok := vm.mapsByFD[fd].(*maps.Array); ok {
			if slot := StackSize + int64(int32(l.imm)); slot >= 0 && slot+4 <= StackSize {
				h.kind, h.off, h.call = kRunLookupArray, int32(slot), fd
			}
		}
	}
	return true
}

// aluApply executes one half of a generic fused ALU pair: v is the
// destination value, s the source-register value, imm the decoded
// immediate. Every case reproduces the corresponding standalone
// dispatch case exactly (the decoder has already folded div/mod-by-zero
// immediates and masked shift immediates).
func aluApply(kind uint8, v, s, imm uint64) uint64 {
	switch kind {
	case kAddImm:
		return v + imm
	case kAddReg:
		return v + s
	case kSubImm:
		return v - imm
	case kSubReg:
		return v - s
	case kMulImm:
		return v * imm
	case kMulReg:
		return v * s
	case kDivImm:
		return v / imm // imm==0 decodes to kMovImm 0
	case kDivReg:
		if s != 0 {
			return v / s
		}
		return 0
	case kModImm:
		return v % imm // imm==0 decodes to kNop
	case kModReg:
		if s != 0 {
			return v % s
		}
		return v
	case kOrImm:
		return v | imm
	case kOrReg:
		return v | s
	case kAndImm:
		return v & imm
	case kAndReg:
		return v & s
	case kLshImm:
		return v << imm
	case kLshReg:
		return v << (s & 63)
	case kRshImm:
		return v >> imm
	case kRshReg:
		return v >> (s & 63)
	case kArshImm:
		return uint64(int64(v) >> imm)
	case kArshReg:
		return uint64(int64(v) >> (s & 63))
	case kXorImm:
		return v ^ imm
	case kXorReg:
		return v ^ s
	case kMovImm:
		return imm
	case kMovReg:
		return s
	case kNeg:
		return -v
	case kAdd32Imm:
		return uint64(uint32(v) + uint32(imm))
	case kAdd32Reg:
		return uint64(uint32(v) + uint32(s))
	case kSub32Imm:
		return uint64(uint32(v) - uint32(imm))
	case kSub32Reg:
		return uint64(uint32(v) - uint32(s))
	case kMul32Imm:
		return uint64(uint32(v) * uint32(imm))
	case kMul32Reg:
		return uint64(uint32(v) * uint32(s))
	case kDiv32Imm:
		return uint64(uint32(v) / uint32(imm))
	case kDiv32Reg:
		if s32 := uint32(s); s32 != 0 {
			return uint64(uint32(v) / s32)
		}
		return 0
	case kMod32Imm:
		return uint64(uint32(v) % uint32(imm))
	case kMod32Reg:
		if s32 := uint32(s); s32 != 0 {
			return uint64(uint32(v) % s32)
		}
		return uint64(uint32(v))
	case kOr32Imm:
		return uint64(uint32(v) | uint32(imm))
	case kOr32Reg:
		return uint64(uint32(v) | uint32(s))
	case kAnd32Imm:
		return uint64(uint32(v) & uint32(imm))
	case kAnd32Reg:
		return uint64(uint32(v) & uint32(s))
	case kLsh32Imm:
		return uint64(uint32(v) << uint32(imm))
	case kLsh32Reg:
		return uint64(uint32(v) << (uint32(s) & 31))
	case kRsh32Imm:
		return uint64(uint32(v) >> uint32(imm))
	case kRsh32Reg:
		return uint64(uint32(v) >> (uint32(s) & 31))
	case kArsh32Imm:
		return uint64(uint32(int32(uint32(v)) >> uint32(imm)))
	case kArsh32Reg:
		return uint64(uint32(int32(uint32(v)) >> (uint32(s) & 31)))
	case kXor32Imm:
		return uint64(uint32(v) ^ uint32(imm))
	case kXor32Reg:
		return uint64(uint32(v) ^ uint32(s))
	case kMov32Imm:
		return uint64(uint32(imm)) // re-zero-extend: immB round-trips int32
	case kMov32Reg:
		return uint64(uint32(s))
	case kNeg32:
		return uint64(-uint32(v))
	case kZext32:
		return uint64(uint32(v))
	}
	return v // kNop (mod-by-zero immediate)
}

// badInsnErr reproduces the wire loop's ErrBadInstr message for the
// instruction classes that can decode to kBad.
func badInsnErr(in isa.Instruction, pc int) error {
	switch in.Op & 0x07 {
	case isa.ClassALU64:
		return fmt.Errorf("%w: alu64 op %#x at %d", ErrBadInstr, in.Op, pc)
	case isa.ClassALU:
		return fmt.Errorf("%w: alu32 op %#x at %d", ErrBadInstr, in.Op, pc)
	}
	return fmt.Errorf("%w: ld op %#x at %d", ErrBadInstr, in.Op, pc)
}

// leLoad and leStore move a little-endian value of len(b) bytes (1, 2,
// 4 or 8) between memory and a register, as the sized loads and stores do.
func leLoad(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

func leStore(b []byte, v uint64) {
	switch len(b) {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// faultAt wraps a fault raised by the wire instruction at pc with that
// instruction's pc and text, as the wire loop reports it. Out of line,
// so the fault sites of fastLoop share one copy of the formatting.
//
//go:noinline
func faultAt(p *Program, pc int, e error) error {
	return fmt.Errorf("at %d (%s): %w", pc, p.ins[pc], e)
}

// wbytes resolves ptr for an n-byte store: the wire loop's store()
// checks (read-only region first, then bounds) in the same order.
func (vm *VM) wbytes(ptr uint64, n int) ([]byte, error) {
	if ptr == 0 {
		return nil, ErrNullDeref
	}
	if id := ptr >> RegionShift; id < uint64(len(vm.regions)) &&
		vm.regions[id].kind == regMem && !vm.regions[id].writable {
		return nil, ErrReadOnly
	}
	return vm.Bytes(ptr, n)
}

// execFast is the predecoded interpreter loop: one flat switch per
// decoded instruction, no wire-format re-decode, no nested class
// dispatch, dense helper/kfunc tables instead of map lookups. Its
// observable behaviour — results, errors and their text, InsnCount,
// stats attribution, RegSink, lock accounting — matches exec exactly;
// the differential suite enforces this.
//
// Budget accounting mirrors the wire loop one retired instruction at a
// time: the loop head charges one unit (the first or only wire
// instruction of the slot), and fused cases charge their second unit
// inline, failing with ErrBudget after the first half's effects exactly
// where the wire loop would. A run charges the rest of its units at
// once, and only when they all remain.
func (vm *VM) execFast(p *Program, ctx []byte, ps *ProgStats) (uint64, error) {
	if p.dec == nil {
		return vm.exec(p, ctx, ps)
	}
	vm.regions[vm.ctxID].data = ctx
	// The stack's backing array is stable for the life of the VM, so the
	// stack-resolved kinds index this slice directly instead of paying a
	// region resolution per access.
	stk := vm.regions[vm.stackID].data

	var r [16]uint64
	r[isa.R1] = vm.ctxID << RegionShift
	r[isa.R2] = uint64(len(ctx))
	r[isa.R10] = vm.stackID<<RegionShift + StackSize

	ret, budget, err := vm.fastLoop(p, ps, &r, stk, 0, vm.Budget)
	vm.InsnCount += uint64(vm.Budget - budget)
	return ret, err
}

// fastLoop is the predecoded dispatch loop proper, resumable from any
// pc with any remaining budget. execFast enters it at pc 0 with the
// full budget; the JIT driver enters it mid-program when a block's
// pre-charge would overrun the remaining budget, so partial-retire
// semantics under exhaustion stay bit-identical to this loop by
// construction. Returns the exit value, the unspent budget, and the
// error exactly as the wire loop would report them.
func (vm *VM) fastLoop(p *Program, ps *ProgStats, rp *[16]uint64, stk []byte, pc, budget int) (uint64, int, error) {
	r := rp
	code := p.dec
	var ret uint64
	var err error
loop:
	for {
		if budget <= 0 {
			err = ErrBudget
			break loop
		}
		if uint(pc) >= uint(len(code)) {
			err = fmt.Errorf("%w: pc %d out of range", ErrBadInstr, pc)
			break loop
		}
		d := &code[pc]
		budget--
		if ps != nil {
			ps.Insns++
			ps.OpClass[d.cls&7]++
		}
		switch d.kind {
		case kAddImm:
			r[d.dst&15] += d.imm
		case kAddReg:
			r[d.dst&15] += r[d.src&15]
		case kSubImm:
			r[d.dst&15] -= d.imm
		case kSubReg:
			r[d.dst&15] -= r[d.src&15]
		case kMulImm:
			r[d.dst&15] *= d.imm
		case kMulReg:
			r[d.dst&15] *= r[d.src&15]
		case kDivImm:
			r[d.dst&15] /= d.imm // imm==0 decodes to kMovImm 0
		case kDivReg:
			if s := r[d.src&15]; s != 0 {
				r[d.dst&15] /= s
			} else {
				r[d.dst&15] = 0
			}
		case kModImm:
			r[d.dst&15] %= d.imm // imm==0 decodes to kNop
		case kModReg:
			if s := r[d.src&15]; s != 0 {
				r[d.dst&15] %= s
			}
		case kOrImm:
			r[d.dst&15] |= d.imm
		case kOrReg:
			r[d.dst&15] |= r[d.src&15]
		case kAndImm:
			r[d.dst&15] &= d.imm
		case kAndReg:
			r[d.dst&15] &= r[d.src&15]
		case kLshImm:
			r[d.dst&15] <<= d.imm
		case kLshReg:
			r[d.dst&15] <<= r[d.src&15] & 63
		case kRshImm:
			r[d.dst&15] >>= d.imm
		case kRshReg:
			r[d.dst&15] >>= r[d.src&15] & 63
		case kArshImm:
			r[d.dst&15] = uint64(int64(r[d.dst&15]) >> d.imm)
		case kArshReg:
			r[d.dst&15] = uint64(int64(r[d.dst&15]) >> (r[d.src&15] & 63))
		case kXorImm:
			r[d.dst&15] ^= d.imm
		case kXorReg:
			r[d.dst&15] ^= r[d.src&15]
		case kMovImm:
			r[d.dst&15] = d.imm
		case kMovReg:
			r[d.dst&15] = r[d.src&15]
		case kNeg:
			r[d.dst&15] = -r[d.dst&15]

		case kAdd32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) + uint32(d.imm))
		case kAdd32Reg:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) + uint32(r[d.src&15]))
		case kSub32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) - uint32(d.imm))
		case kSub32Reg:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) - uint32(r[d.src&15]))
		case kMul32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) * uint32(d.imm))
		case kMul32Reg:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) * uint32(r[d.src&15]))
		case kDiv32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) / uint32(d.imm))
		case kDiv32Reg:
			if s := uint32(r[d.src&15]); s != 0 {
				r[d.dst&15] = uint64(uint32(r[d.dst&15]) / s)
			} else {
				r[d.dst&15] = 0
			}
		case kMod32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) % uint32(d.imm))
		case kMod32Reg:
			if s := uint32(r[d.src&15]); s != 0 {
				r[d.dst&15] = uint64(uint32(r[d.dst&15]) % s)
			} else {
				r[d.dst&15] = uint64(uint32(r[d.dst&15]))
			}
		case kOr32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) | uint32(d.imm))
		case kOr32Reg:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) | uint32(r[d.src&15]))
		case kAnd32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) & uint32(d.imm))
		case kAnd32Reg:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) & uint32(r[d.src&15]))
		case kLsh32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) << uint32(d.imm))
		case kLsh32Reg:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) << (uint32(r[d.src&15]) & 31))
		case kRsh32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) >> uint32(d.imm))
		case kRsh32Reg:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) >> (uint32(r[d.src&15]) & 31))
		case kArsh32Imm:
			r[d.dst&15] = uint64(uint32(int32(uint32(r[d.dst&15])) >> uint32(d.imm)))
		case kArsh32Reg:
			r[d.dst&15] = uint64(uint32(int32(uint32(r[d.dst&15])) >> (uint32(r[d.src&15]) & 31)))
		case kXor32Imm:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) ^ uint32(d.imm))
		case kXor32Reg:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]) ^ uint32(r[d.src&15]))
		case kMov32Imm:
			r[d.dst&15] = d.imm
		case kMov32Reg:
			r[d.dst&15] = uint64(uint32(r[d.src&15]))
		case kNeg32:
			r[d.dst&15] = uint64(-uint32(r[d.dst&15]))
		case kZext32:
			r[d.dst&15] = uint64(uint32(r[d.dst&15]))

		case kJa:
			pc = int(d.tgt)
			continue
		case kJeqImm:
			if r[d.dst&15] == d.imm {
				pc = int(d.tgt)
				continue
			}
		case kJeqReg:
			if r[d.dst&15] == r[d.src&15] {
				pc = int(d.tgt)
				continue
			}
		case kJneImm:
			if r[d.dst&15] != d.imm {
				pc = int(d.tgt)
				continue
			}
		case kJneReg:
			if r[d.dst&15] != r[d.src&15] {
				pc = int(d.tgt)
				continue
			}
		case kJgtImm:
			if r[d.dst&15] > d.imm {
				pc = int(d.tgt)
				continue
			}
		case kJgtReg:
			if r[d.dst&15] > r[d.src&15] {
				pc = int(d.tgt)
				continue
			}
		case kJgeImm:
			if r[d.dst&15] >= d.imm {
				pc = int(d.tgt)
				continue
			}
		case kJgeReg:
			if r[d.dst&15] >= r[d.src&15] {
				pc = int(d.tgt)
				continue
			}
		case kJltImm:
			if r[d.dst&15] < d.imm {
				pc = int(d.tgt)
				continue
			}
		case kJltReg:
			if r[d.dst&15] < r[d.src&15] {
				pc = int(d.tgt)
				continue
			}
		case kJleImm:
			if r[d.dst&15] <= d.imm {
				pc = int(d.tgt)
				continue
			}
		case kJleReg:
			if r[d.dst&15] <= r[d.src&15] {
				pc = int(d.tgt)
				continue
			}
		case kJsetImm:
			if r[d.dst&15]&d.imm != 0 {
				pc = int(d.tgt)
				continue
			}
		case kJsetReg:
			if r[d.dst&15]&r[d.src&15] != 0 {
				pc = int(d.tgt)
				continue
			}
		case kJsgtImm:
			if int64(r[d.dst&15]) > int64(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJsgtReg:
			if int64(r[d.dst&15]) > int64(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJsgeImm:
			if int64(r[d.dst&15]) >= int64(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJsgeReg:
			if int64(r[d.dst&15]) >= int64(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJsltImm:
			if int64(r[d.dst&15]) < int64(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJsltReg:
			if int64(r[d.dst&15]) < int64(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJsleImm:
			if int64(r[d.dst&15]) <= int64(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJsleReg:
			if int64(r[d.dst&15]) <= int64(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}

		case kJeq32Imm:
			if uint32(r[d.dst&15]) == uint32(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJeq32Reg:
			if uint32(r[d.dst&15]) == uint32(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJne32Imm:
			if uint32(r[d.dst&15]) != uint32(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJne32Reg:
			if uint32(r[d.dst&15]) != uint32(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJgt32Imm:
			if uint32(r[d.dst&15]) > uint32(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJgt32Reg:
			if uint32(r[d.dst&15]) > uint32(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJge32Imm:
			if uint32(r[d.dst&15]) >= uint32(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJge32Reg:
			if uint32(r[d.dst&15]) >= uint32(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJlt32Imm:
			if uint32(r[d.dst&15]) < uint32(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJlt32Reg:
			if uint32(r[d.dst&15]) < uint32(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJle32Imm:
			if uint32(r[d.dst&15]) <= uint32(d.imm) {
				pc = int(d.tgt)
				continue
			}
		case kJle32Reg:
			if uint32(r[d.dst&15]) <= uint32(r[d.src&15]) {
				pc = int(d.tgt)
				continue
			}
		case kJset32Imm:
			if uint32(r[d.dst&15])&uint32(d.imm) != 0 {
				pc = int(d.tgt)
				continue
			}
		case kJset32Reg:
			if uint32(r[d.dst&15])&uint32(r[d.src&15]) != 0 {
				pc = int(d.tgt)
				continue
			}

		case kCallHelper:
			// Stats-off direct dispatch through the dense table; the cold
			// conditions (unregistered slot, stats attribution) fall back to
			// the shared invoke path the wire loop uses.
			var v uint64
			var e error
			if fn := vm.helperTab[d.call]; fn != nil && vm.curProg == nil && !vm.sampled {
				v, e = fn(vm, r[1], r[2], r[3], r[4], r[5])
			} else {
				v, e = vm.invokeHelper(d.call, int32(uint32(d.imm)), r[1], r[2], r[3], r[4], r[5])
			}
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			r[0] = v
			r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
		case kCallKfunc:
			var v uint64
			var e error
			if k := vm.kfuncTab[d.call]; k != nil && vm.curProg == nil && vm.kfuncFault == nil && !vm.sampled {
				v, e = k.Impl(vm, r[1], r[2], r[3], r[4], r[5])
				if e != nil {
					e = fmt.Errorf("kfunc %s: %w", k.Name, e)
					v = 0
				}
			} else {
				v, e = vm.invokeKfunc(d.call, int32(uint32(d.imm)), r[1], r[2], r[3], r[4], r[5])
			}
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			r[0] = v
			r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
		case kExit:
			if vm.RegSink != nil {
				copy(vm.RegSink[:], r[:])
			}
			if vm.lockHeld != 0 {
				vm.lockHeld = 0
				vm.lockWord = 0
				err = ErrLockImbalance
				break loop
			}
			ret = r[isa.R0]
			break loop
		case kLd64:
			r[d.dst&15] = d.imm
			pc++ // second slot

		case kLdx1:
			b, e := vm.Bytes(r[d.src&15]+uint64(int64(d.off)), 1)
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			r[d.dst&15] = uint64(b[0])
		case kLdx2:
			b, e := vm.Bytes(r[d.src&15]+uint64(int64(d.off)), 2)
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			r[d.dst&15] = uint64(binary.LittleEndian.Uint16(b))
		case kLdx4:
			b, e := vm.Bytes(r[d.src&15]+uint64(int64(d.off)), 4)
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			r[d.dst&15] = uint64(binary.LittleEndian.Uint32(b))
		case kLdx8:
			b, e := vm.Bytes(r[d.src&15]+uint64(int64(d.off)), 8)
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			r[d.dst&15] = binary.LittleEndian.Uint64(b)

		case kStx1, kStx2, kStx4, kStx8:
			b, e := vm.wbytes(r[d.dst&15]+uint64(int64(d.off)), 1<<(d.kind-kStx1))
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			leStore(b, r[d.src&15])
		case kSt1, kSt2, kSt4, kSt8:
			b, e := vm.wbytes(r[d.dst&15]+uint64(int64(d.off)), 1<<(d.kind-kSt1))
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			leStore(b, d.imm)

		case kLdxStack1:
			r[d.dst&15] = uint64(stk[d.off])
		case kLdxStack2:
			r[d.dst&15] = uint64(binary.LittleEndian.Uint16(stk[d.off:]))
		case kLdxStack4:
			r[d.dst&15] = uint64(binary.LittleEndian.Uint32(stk[d.off:]))
		case kLdxStack8:
			r[d.dst&15] = binary.LittleEndian.Uint64(stk[d.off:])
		case kStxStack1:
			stk[d.off] = byte(r[d.src&15])
		case kStxStack2:
			binary.LittleEndian.PutUint16(stk[d.off:], uint16(r[d.src&15]))
		case kStxStack4:
			binary.LittleEndian.PutUint32(stk[d.off:], uint32(r[d.src&15]))
		case kStxStack8:
			binary.LittleEndian.PutUint64(stk[d.off:], r[d.src&15])
		case kStStack1:
			stk[d.off] = byte(d.imm)
		case kStStack2:
			binary.LittleEndian.PutUint16(stk[d.off:], uint16(d.imm))
		case kStStack4:
			binary.LittleEndian.PutUint32(stk[d.off:], uint32(d.imm))
		case kStStack8:
			binary.LittleEndian.PutUint64(stk[d.off:], d.imm)

		case kFuseLea:
			v := r[d.src&15]
			if budget <= 0 {
				r[d.dst&15] = v // first half (mov) retires alone
				err = ErrBudget
				break loop
			}
			budget--
			if ps != nil {
				ps.Insns++
				ps.OpClass[isa.ClassALU64]++
			}
			r[d.dst&15] = v + d.imm
			pc++
		case kFuseMovHelper:
			r[d.dst&15] = r[d.src&15]
			if budget <= 0 {
				err = ErrBudget
				break loop
			}
			budget--
			if ps != nil {
				ps.Insns++
				ps.OpClass[isa.ClassJMP]++
			}
			var v uint64
			var e error
			if fn := vm.helperTab[d.call]; fn != nil && vm.curProg == nil && !vm.sampled {
				v, e = fn(vm, r[1], r[2], r[3], r[4], r[5])
			} else {
				v, e = vm.invokeHelper(d.call, int32(uint32(d.imm)), r[1], r[2], r[3], r[4], r[5])
			}
			if e != nil {
				err = faultAt(p, pc+1, e)
				break loop
			}
			r[0] = v
			r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
			pc++
		case kFuseMovKfunc:
			r[d.dst&15] = r[d.src&15]
			if budget <= 0 {
				err = ErrBudget
				break loop
			}
			budget--
			if ps != nil {
				ps.Insns++
				ps.OpClass[isa.ClassJMP]++
			}
			var v uint64
			var e error
			if k := vm.kfuncTab[d.call]; k != nil && vm.curProg == nil && vm.kfuncFault == nil && !vm.sampled {
				v, e = k.Impl(vm, r[1], r[2], r[3], r[4], r[5])
				if e != nil {
					e = fmt.Errorf("kfunc %s: %w", k.Name, e)
					v = 0
				}
			} else {
				v, e = vm.invokeKfunc(d.call, int32(uint32(d.imm)), r[1], r[2], r[3], r[4], r[5])
			}
			if e != nil {
				err = faultAt(p, pc+1, e)
				break loop
			}
			r[0] = v
			r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
			pc++
		case kFuseAlu2:
			// Both halves run inline: the hot 64-bit kinds (the hash-mix
			// vocabulary) as direct cases, everything else through the
			// aluApply reference. A call per half would cost as much as the
			// dispatch the fusion saves.
			c := uint32(d.call)
			dst := d.dst & 15
			v := r[dst]
			switch uint8(c) {
			case kAddImm:
				v += d.imm
			case kAddReg:
				v += r[d.src&15]
			case kSubImm:
				v -= d.imm
			case kSubReg:
				v -= r[d.src&15]
			case kMulImm:
				v *= d.imm
			case kMulReg:
				v *= r[d.src&15]
			case kOrImm:
				v |= d.imm
			case kOrReg:
				v |= r[d.src&15]
			case kAndImm:
				v &= d.imm
			case kAndReg:
				v &= r[d.src&15]
			case kLshImm:
				v <<= d.imm
			case kLshReg:
				v <<= r[d.src&15] & 63
			case kRshImm:
				v >>= d.imm
			case kRshReg:
				v >>= r[d.src&15] & 63
			case kXorImm:
				v ^= d.imm
			case kXorReg:
				v ^= r[d.src&15]
			case kMovImm:
				v = d.imm
			case kMovReg:
				v = r[d.src&15]
			case kNeg:
				v = -v
			default:
				v = aluApply(uint8(c), v, r[d.src&15], d.imm)
			}
			r[dst] = v
			if budget <= 0 {
				err = ErrBudget
				break loop
			}
			budget--
			if ps != nil {
				ps.Insns++
				ps.OpClass[d.cls&7]++
			}
			dstB := uint8(c>>16) & 15
			w := r[dstB]
			immB := uint64(int64(d.off))
			switch uint8(c >> 8) {
			case kAddImm:
				w += immB
			case kAddReg:
				w += r[uint8(c>>24)&15]
			case kSubImm:
				w -= immB
			case kSubReg:
				w -= r[uint8(c>>24)&15]
			case kMulImm:
				w *= immB
			case kMulReg:
				w *= r[uint8(c>>24)&15]
			case kOrImm:
				w |= immB
			case kOrReg:
				w |= r[uint8(c>>24)&15]
			case kAndImm:
				w &= immB
			case kAndReg:
				w &= r[uint8(c>>24)&15]
			case kLshImm:
				w <<= immB
			case kLshReg:
				w <<= r[uint8(c>>24)&15] & 63
			case kRshImm:
				w >>= immB
			case kRshReg:
				w >>= r[uint8(c>>24)&15] & 63
			case kXorImm:
				w ^= immB
			case kXorReg:
				w ^= r[uint8(c>>24)&15]
			case kMovImm:
				w = immB
			case kMovReg:
				w = r[uint8(c>>24)&15]
			case kNeg:
				w = -w
			default:
				w = aluApply(uint8(c>>8), w, r[uint8(c>>24)&15], immB)
			}
			r[dstB] = w
			pc++

		case kRunLookup, kRunLookupArray:
			r[d.dst&15] = d.imm
			// Whatever the run cannot reproduce bit for bit — per-instruction
			// stats, a sampled packet's events, budget running out inside it,
			// an unregistered or replaced helper, a wrapped map — executes the
			// head alone and lets the absorbed slots dispatch standalone.
			if ps != nil || vm.sampled || budget < 4 {
				pc++ // the ld_imm64's second slot
				break
			}
			var v uint64
			if d.kind == kRunLookup {
				fn := vm.helperTab[d.call]
				if fn == nil {
					pc++
					break
				}
				var e error
				budget -= 3 // lea pair + call
				if v, e = fn(vm, d.imm, r[10]+uint64(int64(d.off)), r[3], r[4], r[5]); e != nil {
					err = faultAt(p, pc+4, e)
					break loop
				}
			} else {
				arr, ok := vm.mapsByFD[d.call].(*maps.Array)
				if !ok || vm.lookupReplaced {
					pc++
					break
				}
				budget -= 3
				if off, ok := arr.Offset(binary.LittleEndian.Uint32(stk[d.off:])); ok {
					v = vm.mapArenas[d.call][0]<<RegionShift + uint64(off)
				}
			}
			r[0] = v
			r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
			if d.src == 0 {
				pc += 4 // resume after the call
				break
			}
			budget--
			if (v != 0) == (d.src == kJneImm) {
				pc = int(d.tgt)
				continue
			}
			pc += 5
		case kRunXorshift:
			// Each run below first does what its head does alone, then,
			// unless per-instruction stats are attached or the budget could
			// run out inside it, retires the rest of its wire instructions.
			x := d.src & 15
			v := r[x]
			r[d.dst&15] = v
			if ps != nil || budget < int(d.off)-1 {
				break
			}
			budget -= int(d.off) - 1
			t := v >> d.imm
			r[d.dst&15] = t
			v ^= t
			r[x] = v
			if d.off == 4 {
				r[x] = v * r[d.call&15]
			}
			pc += int(d.off) - 1
		case kRunConstPair:
			r[d.dst&15] = d.imm
			pc++ // the ld_imm64's second slot
			if ps != nil || budget < 1 {
				break
			}
			budget--
			e := &code[pc+1]
			r[e.dst&15] = e.imm
			pc += 2
		case kRunBump:
			ptr := r[d.src&15] + uint64(int64(d.off))
			b, e := vm.Bytes(ptr, int(d.call))
			if e != nil {
				err = faultAt(p, pc, e)
				break loop
			}
			v := leLoad(b)
			r[d.dst&15] = v
			if ps != nil || budget < 2 {
				break
			}
			budget -= 2
			v += d.imm
			r[d.dst&15] = v
			if b, e = vm.wbytes(ptr, int(d.call)); e != nil {
				err = faultAt(p, pc+2, e)
				break loop
			}
			leStore(b, v)
			pc += 2
		case kRunIndexLoad:
			v := r[d.src&15]
			r[d.dst&15] = v
			c := uint32(d.call)
			last := int(c>>24) - 1 // the load's offset from the head
			if ps != nil || budget < last {
				break
			}
			budget -= last
			v = (v>>(c&63)&d.imm)<<(c>>6&63) + r[c>>12&15] + uint64(int64(d.tgt))
			r[d.dst&15] = v
			b, e := vm.Bytes(v+uint64(int64(d.off)), 1<<(c>>20&3))
			if e != nil {
				err = faultAt(p, pc+last, e)
				break loop
			}
			r[c>>16&15] = leLoad(b)
			pc += last
		case kRunLoop:
			r[d.dst&15] += d.imm
			if ps != nil || budget < 2 {
				break
			}
			budget -= 2
			pc = int(d.tgt) + 1
			if int64(r[d.src&15]) >= int64(d.off) {
				pc = int(d.call)
			}
			continue
		case kNop:
		default: // kBad
			err = badInsnErr(p.ins[pc], pc)
			break loop
		}
		pc++
	}
	return ret, budget, err
}
