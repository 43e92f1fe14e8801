package nfcatalog

import (
	"testing"
	"time"

	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// TestPreloadCostRatio gates the control-plane insert path of the two
// cuckoo NFs within one run: installing 4096 flows into the eBPF
// flavour (which also writes the datapath map's arena) may cost at most
// 10x what the same inserts cost the kernel flavour (native table
// only). Preload cost is BuildFull at 4096 flows minus BuildFull at one
// flow, which cancels assembly and verification; best of 5, the four
// builds interleaved so drift on the shared CPU hits all alike. With a
// whole-table re-serialisation per insert the ratio is above 100x.
func TestPreloadCostRatio(t *testing.T) {
	full := pktgen.Generate(pktgen.Config{Flows: 4096, Seed: 1})
	one := pktgen.Generate(pktgen.Config{Flows: 1, Seed: 1})
	for _, name := range []string{"cuckooswitch", "cuckoofilter"} {
		arms := []struct {
			flavor nf.Flavor
			trace  *pktgen.Trace
			best   time.Duration
		}{{nf.Kernel, one, 0}, {nf.Kernel, full, 0}, {nf.EBPF, one, 0}, {nf.EBPF, full, 0}}
		for round := 0; round < 5; round++ {
			for i := range arms {
				a := &arms[i]
				start := time.Now()
				if _, err := BuildFull(name, a.flavor, a.trace); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); round == 0 || d < a.best {
					a.best = d
				}
			}
		}
		kernel, ebpf := arms[1].best-arms[0].best, arms[3].best-arms[2].best
		if kernel <= 0 {
			t.Fatalf("%s: kernel preload of 4096 flows measured %v; the subtraction is below timer noise", name, kernel)
		}
		if ebpf > 10*kernel {
			t.Errorf("%s: preloading 4096 flows costs the eBPF flavour %v and the kernel flavour %v (%.1fx, limit 10x)",
				name, ebpf, kernel, float64(ebpf)/float64(kernel))
		}
	}
}

// BenchmarkBuildFull is the in-repo counterpart of the whole-stack
// benchmark's nfcatalog.build_ms.* probes: one catalog build, tables
// preloaded from a 4096-flow trace, per NF and flavour.
func BenchmarkBuildFull(b *testing.B) {
	trace := pktgen.Generate(pktgen.Config{Flows: 4096, Seed: 1})
	for _, name := range Names() {
		for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
			if !Supports(name, flavor) {
				continue
			}
			b.Run(name+"/"+flavor.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := BuildFull(name, flavor, trace); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestENetSTLReplayDoesNotAllocate is the per-packet half of the
// zero-copy pin (internal/core holds the per-kfunc half): once warm,
// replaying a trace through any eNetSTL-flavour NF's Process makes no
// heap allocation — no kfunc converts its buffer, and the VM's call
// boundary sets nothing up per packet. skiplist is the exception by
// design: an insert calls kf_node_alloc, which is an allocator.
func TestENetSTLReplayDoesNotAllocate(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 256, Packets: 1024, ZipfS: 1.1, Seed: 1})
	for _, name := range Names() {
		if !Supports(name, nf.ENetSTL) || name == "skiplist" {
			continue
		}
		b, err := BuildFull(name, nf.ENetSTL, trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		replay := func() {
			for i := range trace.Packets {
				if _, err := b.Inst.Process(trace.Packets[i][:]); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		replay() // tables, free lists and region tables reach their working size
		if n := testing.AllocsPerRun(3, replay); n != 0 {
			t.Errorf("%s: %.0f allocations per %d-packet replay, want 0", name, n, len(trace.Packets))
		}
	}
}

// TestSupports pins the two flavour gaps and that unknown names are
// supported in no flavour; the daemon and the conformance grid both
// decide from here.
func TestSupports(t *testing.T) {
	for _, tc := range []struct {
		name   string
		flavor nf.Flavor
		want   bool
	}{
		{"skiplist", nf.Kernel, true},
		{"skiplist", nf.EBPF, false},
		{"skiplist", nf.ENetSTL, true},
		{"conntrack", nf.EBPF, true},
		{"conntrack", nf.ENetSTL, false},
		{"cmsketch", nf.EBPF, true},
		{"nosuch", nf.Kernel, false},
		{"katran", nf.EBPF, false}, // an app, not a registered NF
	} {
		if got := Supports(tc.name, tc.flavor); got != tc.want {
			t.Errorf("Supports(%q, %v) = %v, want %v", tc.name, tc.flavor, got, tc.want)
		}
	}
}
