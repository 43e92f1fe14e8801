package difftest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
