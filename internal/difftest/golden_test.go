// Golden execution traces: a fixed generated corpus is executed on the
// reference interpreter with full per-step register recording, and the
// rendered traces are pinned under testdata/golden/. An interpreter
// regression — in either machine — shows up as a readable trace diff
// rather than a bare verdict mismatch.

package difftest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enetstl/internal/ebpf/isa"
)

var update = flag.Bool("update", false, "rewrite golden execution traces")

func goldenPath(seed uint64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("gen_%03d.txt", seed))
}

// TestGoldenTraces pins the reference interpreter's execution traces
// for the fixed corpus, and cross-checks the production VM against the
// reference on the same programs — so a regression in either machine
// diffs visibly against the committed trace.
func TestGoldenTraces(t *testing.T) {
	for _, seed := range GoldenCorpus() {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			prog, err := GenProgram(seed)
			if err != nil {
				t.Fatal(err)
			}
			got := RecordTrace(prog, vmCtx())
			path := goldenPath(seed)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run with -update to record): %v", err)
			}
			if got != string(want) {
				t.Fatalf("execution trace changed for seed %d; diff %s against a -update run", seed, path)
			}
			// The trace pins the reference; CrossCheck pins the real VM to
			// the reference, closing the loop.
			if err := CrossCheck(prog, vmCtx()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// GoldenCorpus returns the generator seeds whose traces are pinned.
// Append seeds to grow the corpus; never renumber existing ones, their
// files are named by seed.
func GoldenCorpus() []uint64 { return []uint64{1, 2, 3, 5, 8, 13, 21, 34} }

// fnv64 is the checksum used to pin bulk state (stack, map arena) in
// golden files without storing hundreds of zero bytes.
func fnv64(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// RecordTrace executes prog on a fresh reference machine over ctx and
// renders the disassembly, the per-step register trace, and the final
// machine state.
func RecordTrace(prog []isa.Instruction, ctx []byte) string {
	var sb strings.Builder
	sb.WriteString("# program\n")
	sb.WriteString(isa.Disassemble(prog))
	sb.WriteString("# execution\n")

	ref := NewRef()
	ref.AddArray(GenMapValueSize, GenMapEntries)
	ref.TraceFn = func(step, pc int, ins isa.Instruction, regs *[isa.NumRegs]uint64) {
		fmt.Fprintf(&sb, "%4d pc=%-3d %-34s |", step, pc, ins.String())
		for i, v := range regs {
			fmt.Fprintf(&sb, " r%d=%x", i, v)
		}
		sb.WriteByte('\n')
	}
	ctxCopy := append([]byte(nil), ctx...)
	regs, err := ref.Run(prog, ctxCopy)

	sb.WriteString("# final\n")
	fmt.Fprintf(&sb, "err=%v\n", err)
	fmt.Fprintf(&sb, "verdict=%d\n", regs[0])
	fmt.Fprintf(&sb, "stack=fnv:%016x\n", fnv64(ref.Stack[:]))
	fmt.Fprintf(&sb, "ctx=fnv:%016x\n", fnv64(ctxCopy))
	fmt.Fprintf(&sb, "map=fnv:%016x\n", fnv64(ref.Maps[0].Data))
	return sb.String()
}
