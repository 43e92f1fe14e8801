package difftest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
)

// fuzzProgCap bounds how many instructions one fuzz input decodes to,
// so a single differential run stays cheap and the fuzzer explores
// inputs instead of grinding through one giant program.
const fuzzProgCap = 512

// decodeFuzzProg interprets data in the classic eBPF wire layout:
// 8 bytes per instruction — opcode, dst|src register nibbles,
// little-endian 16-bit offset, little-endian 32-bit immediate.
// Trailing bytes that do not fill an instruction are ignored.
func decodeFuzzProg(data []byte) []isa.Instruction {
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

// encodeFuzzProg is the inverse of decodeFuzzProg, used to seed the
// corpus from generated programs.
func encodeFuzzProg(prog []isa.Instruction) []byte {
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

// fuzzSeed is one named program of the committed corpus.
type fuzzSeed struct {
	name string // file name under testdata/fuzz/FuzzJITCrossCheck
	prog []isa.Instruction
}

func shape(name string, build func(b *asm.Builder)) fuzzSeed {
	b := asm.New()
	build(b)
	return fuzzSeed{name: "shape-" + name, prog: b.MustProgram()}
}

// lookupSite emits the canonical map-lookup call site on the generator's
// array map — the shape the predecoder lowers to one lookup run — with
// the key at stack slot off.
func lookupSite(b *asm.Builder, off int16) {
	b.LoadMap(asm.R1, 0)
	b.Mov(asm.R2, asm.R10).AddImm(asm.R2, int32(off))
	b.Call(vm.HelperMapLookup)
}

// shapeSeeds are hand-built programs for instruction shapes the
// generator seldom or never emits. Most once had a dedicated fast path —
// a fused kind in the predecoded loop or a superblock in the jit — and
// lost it because no catalog NF contains them; they now run through the
// standalone decodes, the generic ALU pair and the generic block driver.
// The lookup-run and run-* shapes are the lowerings that have a
// dedicated path (the lookup run and the five idiom runs), each with
// its near-misses: a branch landing inside, aliased registers, a loop
// test reached other than by the back edge. As seeds (and as inputs of
// the jit parity tests) they keep all four machines compared on exactly
// those shapes.
func shapeSeeds() []fuzzSeed {
	return []fuzzSeed{
		shape("lookup-run", func(b *asm.Builder) {
			// A hit with the null check folded as jne, a miss folded as
			// jeq, and a hit whose check is not adjacent to the call.
			b.MovImm(asm.R7, 0)
			b.StoreImm(asm.R10, -4, 3, 4)
			lookupSite(b, -4)
			b.JmpImm(asm.JNE, asm.R0, 0, "hit")
			b.MovImm(asm.R0, 1).Exit()
			b.Label("hit")
			b.StoreImm(asm.R0, 0, 0x41, 8)
			b.Load(asm.R7, asm.R0, 0, 8)
			b.StoreImm(asm.R10, -8, GenMapEntries+1, 4)
			lookupSite(b, -8)
			b.JmpImm(asm.JEQ, asm.R0, 0, "miss")
			b.MovImm(asm.R0, 2).Exit()
			b.Label("miss")
			b.StoreImm(asm.R10, -4, 5, 4)
			lookupSite(b, -4)
			b.AddImm(asm.R7, 1)
			b.JmpImm(asm.JEQ, asm.R0, 0, "out")
			b.Load(asm.R8, asm.R0, 0, 8)
			b.Add(asm.R7, asm.R8)
			b.Label("out")
			b.Mov(asm.R0, asm.R7)
			b.Exit()
		}),
		shape("lookup-run-near-miss", func(b *asm.Builder) {
			// Key stored from a register; the check on a copy of R0; the
			// key address built in R3 and moved; a second branch landing on
			// the null check, so the run ends at the call.
			b.MovImm(asm.R7, 3)
			b.Store(asm.R10, -4, asm.R7, 4)
			lookupSite(b, -4)
			b.Mov(asm.R8, asm.R0)
			b.JmpImm(asm.JEQ, asm.R8, 0, "a")
			b.Load(asm.R7, asm.R8, 0, 8)
			b.Label("a")
			b.MovImm(asm.R8, 0)
			b.LoadMap(asm.R1, 0)
			b.Mov(asm.R3, asm.R10).AddImm(asm.R3, -4)
			b.Mov(asm.R2, asm.R3)
			b.Call(vm.HelperMapLookup)
			b.JmpImm(asm.JEQ, asm.R0, 0, "b")
			b.Load(asm.R8, asm.R0, 0, 8)
			b.Label("b")
			b.MovImm(asm.R0, 0)
			b.JmpImm(asm.JGT, asm.R7, 100, "chk") // into the call site's tail
			b.StoreImm(asm.R10, -4, 1, 4)
			lookupSite(b, -4)
			b.Label("chk")
			b.JmpImm(asm.JEQ, asm.R0, 0, "c")
			b.Load(asm.R8, asm.R0, 0, 8)
			b.Label("c")
			b.Mov(asm.R0, asm.R7)
			b.Add(asm.R0, asm.R8)
			b.Exit()
		}),
		shape("run-xorshift", func(b *asm.Builder) {
			// nfasm's hash mix: the four-wide run, then the three-wide one.
			b.Mov(asm.R6, asm.R1)
			b.Load(asm.R7, asm.R6, 0, 8).Load(asm.R9, asm.R6, 8, 8)
			b.Mov(asm.R8, asm.R7).RshImm(asm.R8, 23).Xor(asm.R7, asm.R8).Mul(asm.R7, asm.R9)
			b.Mov(asm.R8, asm.R7).RshImm(asm.R8, 47).Xor(asm.R7, asm.R8)
			b.Mov(asm.R0, asm.R7).Exit()
		}),
		shape("run-xorshift-near-miss", func(b *asm.Builder) {
			// t == x (no run), the multiplier aliasing t and then x (runs),
			// and a branch landing on the shift (no run).
			b.Mov(asm.R6, asm.R1)
			b.Load(asm.R7, asm.R6, 0, 8).Load(asm.R9, asm.R6, 8, 8)
			b.Mov(asm.R7, asm.R7).RshImm(asm.R7, 23).Xor(asm.R7, asm.R7).Mul(asm.R7, asm.R9)
			b.Load(asm.R7, asm.R6, 16, 8)
			b.Mov(asm.R8, asm.R7).RshImm(asm.R8, 13).Xor(asm.R7, asm.R8).Mul(asm.R7, asm.R8)
			b.Mov(asm.R8, asm.R7).RshImm(asm.R8, 29).Xor(asm.R7, asm.R8).Mul(asm.R7, asm.R7)
			b.JmpImm(asm.JGT, asm.R7, 5, "mid")
			b.Mov(asm.R8, asm.R7)
			b.Label("mid")
			b.RshImm(asm.R8, 7).Xor(asm.R7, asm.R8)
			b.Mov(asm.R0, asm.R7).Exit()
		}),
		shape("run-const-pair", func(b *asm.Builder) {
			// Three constants (a pair and a single), then a pair whose
			// second half a branch lands on (no run).
			b.LoadImm64(asm.R7, 0x880355f21e6d1965)
			b.LoadImm64(asm.R8, 0x2127599bf4325c37)
			b.LoadImm64(asm.R9, 0x5555555555555555)
			b.Mov(asm.R0, asm.R7).Xor(asm.R0, asm.R8).Add(asm.R0, asm.R9)
			b.JmpImm(asm.JGT, asm.R0, 5, "second")
			b.LoadImm64(asm.R7, 0x0f0f0f0f0f0f0f0f)
			b.Label("second")
			b.LoadImm64(asm.R8, 0x0101010101010101)
			b.Xor(asm.R0, asm.R7).Xor(asm.R0, asm.R8).Exit()
		}),
		shape("run-bump", func(b *asm.Builder) {
			// A map value's 8- and 4-byte counters, then a stack slot
			// through a copy of the frame pointer.
			b.StoreImm(asm.R10, -4, 3, 4)
			lookupSite(b, -4)
			b.JmpImm(asm.JEQ, asm.R0, 0, "out")
			b.Load(asm.R1, asm.R0, 0, 8).AddImm(asm.R1, 1).Store(asm.R0, 0, asm.R1, 8)
			b.Load(asm.R2, asm.R0, 4, 4).AddImm(asm.R2, -7).Store(asm.R0, 4, asm.R2, 4)
			b.Label("out")
			b.Mov(asm.R6, asm.R10)
			b.StoreImm(asm.R10, -16, 5, 8)
			b.Load(asm.R3, asm.R6, -16, 8).AddImm(asm.R3, 2).Store(asm.R6, -16, asm.R3, 8)
			b.Mov(asm.R0, asm.R3).Exit()
		}),
		shape("run-bump-near-miss", func(b *asm.Builder) {
			// The store at another offset and width (no run), then a branch
			// landing on the add (no run).
			b.StoreImm(asm.R10, -4, 2, 4)
			lookupSite(b, -4)
			b.JmpImm(asm.JEQ, asm.R0, 0, "out")
			b.Load(asm.R1, asm.R0, 0, 8).AddImm(asm.R1, 1).Store(asm.R0, 4, asm.R1, 4)
			b.JmpImm(asm.JGT, asm.R1, 3, "mid")
			b.Load(asm.R1, asm.R0, 0, 8)
			b.Label("mid")
			b.AddImm(asm.R1, 1).Store(asm.R0, 0, asm.R1, 8)
			b.Label("out")
			b.MovImm(asm.R0, 0).Exit()
		}),
		shape("run-index-load", func(b *asm.Builder) {
			// Indexed loads off the context: spacesaving's masked load in
			// both widths, edf's (loading into the address register),
			// eiffel's with a constant displacement and bloom's byte load.
			b.Mov(asm.R6, asm.R1)
			b.Load(asm.R5, asm.R6, 0, 8)
			b.Mov(asm.R0, asm.R5).AndImm(asm.R0, 7).LshImm(asm.R0, 3).Add(asm.R0, asm.R6).Load(asm.R1, asm.R0, 0, 8)
			b.Mov(asm.R0, asm.R5).AndImm(asm.R0, 15).LshImm(asm.R0, 2).Add(asm.R0, asm.R6).Load(asm.R2, asm.R0, 0, 4)
			b.Add(asm.R1, asm.R2)
			b.Mov(asm.R0, asm.R5).RshImm(asm.R0, 2).AndImm(asm.R0, 7).LshImm(asm.R0, 3).Add(asm.R0, asm.R6)
			b.Load(asm.R0, asm.R0, 0, 4)
			b.Add(asm.R1, asm.R0)
			b.Mov(asm.R0, asm.R5).AndImm(asm.R0, 3).LshImm(asm.R0, 3).Add(asm.R0, asm.R6).AddImm(asm.R0, 8)
			b.Load(asm.R2, asm.R0, 0, 8)
			b.Add(asm.R1, asm.R2)
			b.AndImm(asm.R5, 255)
			b.Mov(asm.R0, asm.R5).RshImm(asm.R0, 3).Add(asm.R0, asm.R6).Load(asm.R2, asm.R0, 0, 1)
			b.Add(asm.R1, asm.R2)
			b.Mov(asm.R0, asm.R1).Exit()
		}),
		shape("run-index-load-near-miss", func(b *asm.Builder) {
			// A branch landing on the shift (no run), then the steps out of
			// order (no run).
			b.Mov(asm.R6, asm.R1)
			b.Load(asm.R5, asm.R6, 0, 8)
			b.MovImm(asm.R0, 0)
			b.JmpImm(asm.JGT, asm.R5, 100, "mid")
			b.Mov(asm.R0, asm.R5).AndImm(asm.R0, 7)
			b.Label("mid")
			b.LshImm(asm.R0, 3).Add(asm.R0, asm.R6).Load(asm.R1, asm.R0, 0, 8)
			b.Mov(asm.R0, asm.R5).LshImm(asm.R0, 3).AndImm(asm.R0, 56).Add(asm.R0, asm.R6).Load(asm.R2, asm.R0, 0, 8)
			b.Add(asm.R1, asm.R2)
			b.Mov(asm.R0, asm.R1).Exit()
		}),
		shape("run-loop", func(b *asm.Builder) {
			// Spacesaving's scan: an indexed load per trip, the back edge
			// folding the jsge; then a loop counting up from below zero.
			b.Mov(asm.R6, asm.R1)
			b.MovImm(asm.R8, 0)
			b.BoundedLoop(asm.R5, 8, func(b *asm.Builder) {
				b.Mov(asm.R0, asm.R5).AndImm(asm.R0, 7).LshImm(asm.R0, 3).Add(asm.R0, asm.R6).Load(asm.R1, asm.R0, 0, 4)
				b.Add(asm.R8, asm.R1)
			})
			b.MovImm(asm.R5, -6)
			b.Label("top")
			b.JmpImm(asm.JSGE, asm.R5, -2, "done")
			b.AddImm(asm.R8, 3)
			b.AddImm(asm.R5, 1).Ja("top")
			b.Label("done")
			b.Mov(asm.R0, asm.R8).Exit()
		}),
		shape("run-loop-near-miss", func(b *asm.Builder) {
			// The jsge is also reached by a forward jump; the back edge's
			// add counts another register than the test; and a branch
			// lands on the ja (no run).
			b.MovImm(asm.R0, 0).MovImm(asm.R5, 0)
			b.JmpImm(asm.JEQ, asm.R5, 0, "top")
			b.MovImm(asm.R0, 100)
			b.Label("top")
			b.JmpImm(asm.JSGE, asm.R5, 6, "done")
			b.AddImm(asm.R5, 1)
			b.AddImm(asm.R0, 3)
			b.JmpImm(asm.JGT, asm.R0, 9, "back")
			b.AddImm(asm.R0, 1)
			b.Label("back")
			b.Ja("top")
			b.Label("done")
			b.Exit()
		}),
		shape("add-chain", func(b *asm.Builder) {
			b.MovImm(asm.R0, 1)
			for i := int32(1); i <= 5; i++ {
				b.AddImm(asm.R0, i)
			}
			b.Exit()
		}),
		shape("add-add", func(b *asm.Builder) {
			b.MovImm(asm.R0, 1)
			b.AddImm(asm.R0, 2)
			b.AddImm(asm.R0, -3)
			b.Exit()
		}),
		shape("hash-mix-quad", func(b *asm.Builder) {
			b.MovImm(asm.R0, 7)
			b.MovImm(asm.R7, 0x9e37)
			for i := int32(0); i < 2; i++ {
				b.AddImm(asm.R0, 3+i) // add+xor ...
				b.Xor(asm.R0, asm.R7)
				b.LshImm(asm.R0, 1) // ... shl+add: the quad
				b.Add(asm.R0, asm.R7)
			}
			b.Xor(asm.R0, asm.R7) // xor+mul
			b.MulImm(asm.R0, 31)
			b.Exit()
		}),
		shape("ldx-and-widths", func(b *asm.Builder) {
			b.Mov(asm.R6, asm.R1)
			b.StoreImm(asm.R10, -8, 0x12345678, 8)
			b.MovImm(asm.R0, 0)
			for _, size := range []int{1, 2, 4, 8} {
				b.Load(asm.R7, asm.R6, int16(size), size) // off the context
				b.AndImm(asm.R7, 0x7f7f7f7f)
				b.Add(asm.R0, asm.R7)
				b.Load(asm.R8, asm.R10, -8, size) // off a stack slot
				b.AndImm(asm.R8, 0x0ff0)
				b.Add(asm.R0, asm.R8)
				b.Store(asm.R10, -16, asm.R0, 8) // load-mask, accumulate, store back
			}
			b.Exit()
		}),
		shape("counted-loop-imm", func(b *asm.Builder) {
			b.MovImm(asm.R0, 0)
			b.MovImm(asm.R7, 0)
			b.Label("top")
			b.AddImm(asm.R0, 3)
			b.AddImm(asm.R7, 1)
			b.JmpImm(asm.JLT, asm.R7, 8, "top")
			b.Exit()
		}),
		shape("counted-loop-reg", func(b *asm.Builder) {
			b.MovImm(asm.R0, 0)
			b.MovImm(asm.R7, 0)
			b.MovImm(asm.R8, 5)
			b.Label("top")
			b.AddImm(asm.R0, 2)
			b.AddImm(asm.R7, 1)
			b.Jmp(asm.JNE, asm.R7, asm.R8, "top")
			b.Exit()
		}),
		shape("two-block-cycle", func(b *asm.Builder) {
			b.MovImm(asm.R0, 0)
			b.MovImm(asm.R7, 0)
			b.Label("head")
			b.JmpImm(asm.JGE, asm.R7, 8, "done")
			b.AddImm(asm.R0, 3)
			b.AddImm(asm.R7, 1)
			b.Ja("head")
			b.Label("done")
			b.Exit()
		}),
		shape("seven-unit-block", func(b *asm.Builder) {
			b.MovImm(asm.R0, 1)
			b.MovImm(asm.R7, 2)
			b.Add(asm.R0, asm.R7)
			b.LshImm(asm.R0, 3)
			b.Xor(asm.R0, asm.R7)
			b.SubImm(asm.R0, 5)
			b.Or(asm.R0, asm.R7)
			b.Exit()
		}),
	}
}

// corpusSeeds is the committed seed corpus: eight generated
// verifier-valid programs, then the shape seeds.
func corpusSeeds(tb testing.TB) []fuzzSeed {
	var seeds []fuzzSeed
	for seed := uint64(0); seed < 8; seed++ {
		prog, err := GenProgram(seed)
		if err != nil {
			tb.Fatalf("seed %d: %v", seed, err)
		}
		seeds = append(seeds, fuzzSeed{name: fmt.Sprintf("gen-seed-%d", seed), prog: prog})
	}
	return append(seeds, shapeSeeds()...)
}

// FuzzJITCrossCheck feeds arbitrary bytecode through the full
// differential driver: any program the verifier accepts is executed on
// all three production tiers (predecoded, wire, jit) and the reference
// interpreter, and the complete final state — registers, stack,
// context, map arena, retired instruction count, error text — must
// agree. The committed corpus under testdata/fuzz seeds it with
// generated verifier-valid programs, so coverage starts deep in the
// accept space, and with the shapes that have no dedicated path.
func FuzzJITCrossCheck(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(encodeFuzzProg(s.prog))
	}
	ctx := jitCtx()
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeFuzzProg(data)
		switch err := CrossCheck(prog, append([]byte(nil), ctx...)); {
		case err == nil:
		case errors.Is(err, verifier.ErrRejected):
		default:
			t.Fatalf("divergence: %v\n%s", err, isa.Disassemble(prog))
		}
	})
}

// TestRegenJITFuzzCorpus rewrites the committed seed corpus from
// corpusSeeds. Run with ENETSTL_REGEN_FUZZ_CORPUS=1 after changing the
// generator, the shapes or the wire encoding; otherwise it asserts
// every seed's committed file is what a regeneration would write.
func TestRegenJITFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzJITCrossCheck")
	regen := os.Getenv("ENETSTL_REGEN_FUZZ_CORPUS") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range corpusSeeds(t) {
		// A seed the verifier refuses would compare nothing.
		if err := CrossCheck(s.prog, jitCtx()); err != nil {
			t.Errorf("seed %s: %v", s.name, err)
		}
		body := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", encodeFuzzProg(s.prog)))
		name := filepath.Join(dir, s.name)
		if regen {
			if err := os.WriteFile(name, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("committed fuzz corpus incomplete (run with ENETSTL_REGEN_FUZZ_CORPUS=1 to rebuild): %v", err)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("%s is stale: run with ENETSTL_REGEN_FUZZ_CORPUS=1 to rebuild", name)
		}
	}
}
