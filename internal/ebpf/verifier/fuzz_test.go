package verifier_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
)

// fuzzProgCap bounds how many instructions one fuzz input decodes to, so
// a single execution stays cheap and the fuzzer explores inputs instead
// of grinding through one giant program.
const fuzzProgCap = 512

// decodeProg interprets data in the classic eBPF wire layout: 8 bytes
// per instruction — opcode, dst|src register nibbles, little-endian
// 16-bit offset, little-endian 32-bit immediate. Trailing bytes that do
// not fill an instruction are ignored, exactly as a loader would reject
// them before verification.
func decodeProg(data []byte) []isa.Instruction {
	n := len(data) / 8
	if n > fuzzProgCap {
		n = fuzzProgCap
	}
	prog := make([]isa.Instruction, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*8 : i*8+8]
		prog = append(prog, isa.Instruction{
			Op:  b[0],
			Dst: isa.Reg(b[1] & 0x0f),
			Src: isa.Reg(b[1] >> 4),
			Off: int16(binary.LittleEndian.Uint16(b[2:4])),
			Imm: int32(binary.LittleEndian.Uint32(b[4:8])),
		})
	}
	return prog
}

// encodeProg is the inverse of decodeProg, used to build seed corpus
// entries from readable instruction literals.
func encodeProg(prog []isa.Instruction) []byte {
	out := make([]byte, 0, len(prog)*8)
	for _, ins := range prog {
		var b [8]byte
		b[0] = ins.Op
		b[1] = uint8(ins.Dst)&0x0f | uint8(ins.Src)<<4
		binary.LittleEndian.PutUint16(b[2:4], uint16(ins.Off))
		binary.LittleEndian.PutUint32(b[4:8], uint32(ins.Imm))
		out = append(out, b[:]...)
	}
	return out
}

// FuzzVerifier feeds arbitrary bytecode to the verifier and checks its
// two contracts: it never panics regardless of input, and any program it
// accepts runs to completion with no fault other than budget exhaustion
// (the kernel's runtime bound, not a safety failure).
func FuzzVerifier(f *testing.F) {
	// A minimal accepted program: mov r0, 0; exit.
	f.Add(encodeProg([]isa.Instruction{
		{Op: isa.ClassALU64 | isa.ALUMov, Dst: isa.R0, Imm: 0},
		{Op: isa.ClassJMP | isa.JmpExit},
	}))
	// The register-field regression: Src=12 once indexed past the
	// register file and panicked instead of rejecting.
	f.Add(encodeProg([]isa.Instruction{
		{Op: isa.ClassLDX | isa.ModeMEM | isa.SizeW, Dst: isa.R0, Src: 12},
		{Op: isa.ClassJMP | isa.JmpExit},
	}))
	// A ld_imm64 map load with a dangling second slot.
	f.Add(encodeProg([]isa.Instruction{
		{Op: isa.ClassLD | isa.ModeIMM | isa.SizeDW, Dst: isa.R1, Src: isa.PseudoMapFD, Imm: 0},
	}))
	f.Add([]byte{})
	f.Add([]byte{0x95, 0, 0, 0, 0, 0, 0, 0}) // bare exit: R0 uninitialized
	f.Add([]byte{0x85, 0, 0, 0, 1, 0, 0, 0}) // bare call map_lookup
	// The soundness holes of TestSignedBoundNeedsNonNegative and
	// TestHugeVariableOffsetRejected, and the zero register divisor of
	// TestDivModByZero; testdata/fuzz/FuzzVerifier holds the same bytes.
	f.Add(encodeProg(signedBoundHole()))
	f.Add(encodeProg(hugeOffsetHole()))
	f.Add(encodeProg(zeroRegisterDivisor(isa.ALUDiv)))

	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeProg(data)
		machine := vm.New()
		machine.RegisterMap(maps.Must(maps.NewArray(16, 4)))
		if err := verifier.Verify(machine, prog, verifier.Options{CtxSize: 64}); err != nil {
			if !errors.Is(err, verifier.ErrRejected) {
				t.Fatalf("non-rejection verify error: %v", err)
			}
			return
		}
		loaded, err := machine.Load("fuzz", prog)
		if err != nil {
			t.Fatalf("verified program failed to load: %v", err)
		}
		if err := faultOnEitherContext(machine, loaded); err != nil {
			t.Fatalf("verified program faulted at runtime: %v\n%s", err, isa.Disassemble(prog))
		}
	})
}

// TestVerifierRejectsBadRegisterFields pins the fix for a crash the
// differential harness surfaced: instructions with register fields
// outside the architectural file (r11-r15 are encodable in the 4-bit
// wire nibble) must be rejected up front, not indexed into the register
// state array.
func TestVerifierRejectsBadRegisterFields(t *testing.T) {
	exit := isa.Instruction{Op: isa.ClassJMP | isa.JmpExit}
	cases := []struct {
		name string
		ins  isa.Instruction
	}{
		{"ldx_src_12", isa.Instruction{Op: isa.ClassLDX | isa.ModeMEM | isa.SizeW, Dst: isa.R0, Src: 12}},
		{"ldx_dst_11", isa.Instruction{Op: isa.ClassLDX | isa.ModeMEM | isa.SizeDW, Dst: 11, Src: isa.R10}},
		{"stx_src_15", isa.Instruction{Op: isa.ClassSTX | isa.ModeMEM | isa.SizeW, Dst: isa.R10, Src: 15, Off: -8}},
		{"alu64_dst_13", isa.Instruction{Op: isa.ClassALU64 | isa.ALUMov, Dst: 13, Imm: 1}},
		{"alu_src_14", isa.Instruction{Op: isa.ClassALU | isa.ALUAdd | isa.SrcX, Dst: isa.R0, Src: 14}},
		{"jmp_dst_12", isa.Instruction{Op: isa.ClassJMP | isa.JmpJEQ, Dst: 12, Off: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			machine := vm.New()
			err := verifier.Verify(machine, []isa.Instruction{tc.ins, exit}, verifier.Options{CtxSize: 64})
			if !errors.Is(err, verifier.ErrRejected) {
				t.Fatalf("want ErrRejected, got %v", err)
			}
		})
	}
}

// TestVerifierRejectsJMP32ControlOps pins the fix for a FuzzVerifier
// finding (testdata/fuzz/FuzzVerifier/jmp32-ja-self-jump): the verifier
// read ja/call/exit op bits in the JMP32 class as the JMP operation
// while every executor falls through them, so it verified a path the
// VM never takes. The three encodings are not part of this ISA.
func TestVerifierRejectsJMP32ControlOps(t *testing.T) {
	for _, op := range []uint8{isa.JmpJA, isa.JmpCall, isa.JmpExit} {
		for _, srcBit := range []uint8{0, isa.SrcX} {
			ins := isa.Instruction{Op: isa.ClassJMP32 | op | srcBit, Imm: int32(vm.HelperMapLookup)}
			prog := []isa.Instruction{
				{Op: isa.ClassALU64 | isa.ALUMov, Dst: isa.R0, Imm: 0},
				ins,
				{Op: isa.ClassJMP | isa.JmpExit},
			}
			err := verifier.Verify(vm.New(), prog, verifier.Options{CtxSize: 64})
			if !errors.Is(err, verifier.ErrRejected) {
				t.Errorf("opcode %#x: want ErrRejected, got %v", ins.Op, err)
			}
		}
	}
}

// TestDecodeEncodeRoundTrip keeps the fuzz codec honest: every register
// nibble, offset, and immediate must survive a round trip, otherwise the
// fuzzer silently explores a smaller space than it reports.
func TestDecodeEncodeRoundTrip(t *testing.T) {
	prog := []isa.Instruction{
		{Op: isa.ClassALU64 | isa.ALUMov, Dst: isa.R3, Src: 15, Off: -129, Imm: -1},
		{Op: 0xff, Dst: 0x0f, Src: 0x0f, Off: 32767, Imm: 1 << 30},
		{Op: isa.ClassJMP | isa.JmpExit},
	}
	got := decodeProg(encodeProg(prog))
	if len(got) != len(prog) {
		t.Fatalf("round trip length %d, want %d", len(got), len(prog))
	}
	for i := range prog {
		if got[i] != prog[i] {
			t.Fatalf("instruction %d: %+v round-tripped to %+v", i, prog[i], got[i])
		}
	}
}
