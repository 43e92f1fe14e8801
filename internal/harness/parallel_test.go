package harness_test

import (
	"testing"

	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// openShards builds name's shard set through nfcatalog.Open, as nfrun
// does, and returns the instances to replay, uninstrumented, with their
// wiring.
func openShards(t *testing.T, o runtime.Options, name string, flavor nf.Flavor, tr *pktgen.Trace) ([]nf.Instance, *nfcatalog.Sharded) {
	t.Helper()
	built, sh, err := nfcatalog.Open(o, name, flavor, tr)
	if err != nil {
		t.Fatal(err)
	}
	return nfcatalog.Attach(runtime.Options{}, name, built...).Insts, sh
}

// TestParallelRunDeterministic is the RSS correctness contract: for
// NFs whose per-packet verdict is a function of the packet's own flow
// and static preloaded state, hash-partitioning the trace across any
// number of shards must yield identical merged verdict counts — the
// same packets are processed, just on different (per-CPU) instances
// with identical table images.
func TestParallelRunDeterministic(t *testing.T) {
	for _, name := range []string{"cuckooswitch", "cuckoofilter", "vbf", "tss", "daryhash"} {
		for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF} {
			t.Run(name+"/"+flavor.String(), func(t *testing.T) {
				trace := pktgen.Generate(pktgen.Config{
					Flows: 128, Packets: 2000, ZipfS: 1.1, Seed: 42})
				nfcatalog.PrepareTrace(name, trace)
				var want harness.VerdictCounts
				for _, shards := range []int{1, 2, 3, 4} {
					insts, _ := openShards(t, runtime.Options{Shards: shards}, name, flavor, trace)
					res, err := harness.ParallelRun(trace.Clone(), insts, 2)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					if res.Shards != shards || len(res.PerShard) != shards {
						t.Fatalf("shards=%d: result reports %d/%d", shards, res.Shards, len(res.PerShard))
					}
					total := 0
					for _, sr := range res.PerShard {
						total += sr.Packets
					}
					if total != len(trace.Packets) {
						t.Fatalf("shards=%d: shards cover %d of %d packets", shards, total, len(trace.Packets))
					}
					v := res.Verdicts
					if n := v.Aborted + v.Drop + v.Pass + v.Tx + v.Other; n != uint64(2*len(trace.Packets)) {
						t.Fatalf("shards=%d: tallied %d verdicts, want %d (2 trials)",
							shards, n, 2*len(trace.Packets))
					}
					if shards == 1 {
						want = res.Verdicts
						continue
					}
					if res.Verdicts != want {
						t.Fatalf("shards=%d verdicts %v, want shard-count-independent %v",
							shards, res.Verdicts, want)
					}
				}
			})
		}
	}
}

// TestParallelRunPerCPUConntrack is the per-CPU map contract end to
// end: conntrack shards built over one shared PerCPULRUHash (each shard
// a private copy, concurrent goroutines, no shared arenas), then
// merge-on-read aggregation. With the flow count below per-copy
// capacity no copy ever evicts, so the merged per-flow packet totals
// must be bit-identical at every shard count — each flow is seen
// (1 warm-up + trials) times its trace count, regardless of which copy
// tracked it. (Under eviction pressure per-CPU LRU survival is
// legitimately shard-dependent, as in the kernel; that regime is
// exercised by the attack grid, not pinned here.)
func TestParallelRunPerCPUConntrack(t *testing.T) {
	const trials = 2
	trace := pktgen.Generate(pktgen.Config{
		Flows: 64, Packets: 2000, ZipfS: 1.1, Seed: 42}) // 64 flows < 128 per-copy entries
	exact := make([]uint64, len(trace.FlowKeys))
	for _, f := range trace.FlowOf {
		exact[f]++
	}
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF} {
		t.Run(flavor.String(), func(t *testing.T) {
			var want harness.VerdictCounts
			for _, shards := range []int{1, 2, 4, 8} {
				insts, sh := openShards(t, runtime.Options{Shards: shards, PerCPU: true}, "conntrack", flavor, trace)
				res, err := harness.ParallelRun(trace.Clone(), insts, trials)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if shards == 1 {
					want = res.Verdicts
				} else if res.Verdicts != want {
					t.Fatalf("shards=%d verdicts %v, want %v", shards, res.Verdicts, want)
				}
				if res.Verdicts.Drop != 0 {
					t.Fatalf("shards=%d: %d flows shed with no capacity pressure", shards, res.Verdicts.Drop)
				}
				p := sh.PerCPUTable()
				if p == nil || p.NumCPU() != shards {
					t.Fatalf("shards=%d: per-CPU table has %d copies", shards, p.NumCPU())
				}
				if ev := p.Evictions(); ev != 0 {
					t.Fatalf("shards=%d: %d evictions below capacity", shards, ev)
				}
				for f := range trace.FlowKeys {
					key := trace.FlowKeys[f]
					got, ok := sh.FlowPackets(key[:])
					if exact[f] == 0 {
						if ok {
							t.Fatalf("shards=%d: merge found flow %d that never appeared", shards, f)
						}
						continue
					}
					if !ok {
						t.Fatalf("shards=%d: flow %d missing from every copy", shards, f)
					}
					if want := (1 + trials) * exact[f]; got != want {
						t.Fatalf("shards=%d flow %d: merged %d packets, want %d", shards, f, got, want)
					}
				}
			}
		})
	}
}

// TestParallelRunMatchesThroughput anchors the 1-shard parallel path
// to the reference serial harness: same NF, same trace, same verdict
// tally.
func TestParallelRunMatchesThroughput(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 128, Packets: 1500, ZipfS: 1.1, Seed: 7})
	nfcatalog.PrepareTrace("cuckooswitch", trace)

	built, err := nfcatalog.BuildFull("cuckooswitch", nf.EBPF, trace.Clone())
	if err != nil {
		t.Fatal(err)
	}
	inst := built.Inst
	serial, err := harness.Throughput(inst, trace.Clone(), 2)
	if err != nil {
		t.Fatal(err)
	}

	insts, _ := openShards(t, runtime.Options{}, "cuckooswitch", nf.EBPF, trace)
	par, err := harness.ParallelRun(trace.Clone(), insts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if par.Verdicts != serial.Verdicts {
		t.Fatalf("parallel(1) verdicts %v != serial %v", par.Verdicts, serial.Verdicts)
	}
}

// TestParallelEstimatorBounds checks sketch-state merging: count-min
// estimates are sums of hash-row counters, and hash-partitioning the
// stream splits each counter into per-shard addends, so the summed
// estimate must stay a one-sided overestimate of the true per-flow
// count (lower bound) while never exceeding the single-instance
// estimate (collisions can only grow when streams merge).
func TestParallelEstimatorBounds(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 64, Packets: 4000, ZipfS: 1.1, Seed: 11})
	exact := make([]uint64, len(trace.FlowKeys))
	for _, f := range trace.FlowOf {
		exact[f]++
	}
	// ParallelRun replays the trace passes times (1 warm-up + trials),
	// all of which land in the sketch.
	const passes = 2

	insts, single := openShards(t, runtime.Options{}, "cmsketch", nf.EBPF, trace)
	if _, err := harness.ParallelRun(trace.Clone(), insts, 1); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		insts, sh := openShards(t, runtime.Options{Shards: shards}, "cmsketch", nf.EBPF, trace)
		if _, err := harness.ParallelRun(trace.Clone(), insts, 1); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for f := range trace.FlowKeys {
			if exact[f] == 0 {
				continue
			}
			key := trace.FlowKeys[f]
			merged, ok := sh.Estimate(key[:])
			if !ok {
				t.Fatal("cmsketch exposes no estimator")
			}
			ref, _ := single.Estimate(key[:])
			if uint64(merged) < passes*exact[f] {
				t.Fatalf("shards=%d flow %d: merged estimate %d below true count %d",
					shards, f, merged, passes*exact[f])
			}
			if merged > ref {
				t.Fatalf("shards=%d flow %d: merged estimate %d exceeds single-instance %d",
					shards, f, merged, ref)
			}
		}
	}
}

// TestParallelRunPerCPUSketch is the per-CPU counter-matrix contract:
// sketch shards built over one shared PerCPUArray (each shard a
// private copy, concurrent goroutines, no shared arenas), estimates
// read by merge-on-read aggregation. Count-min is deterministic and
// its counters split additively under hash partitioning, so the merged
// estimate must be bit-identical at every shard count; NitroSketch's
// shards draw independent sampling streams, so its merged estimate is
// held to the unbiased-overestimate error envelope instead.
func TestParallelRunPerCPUSketch(t *testing.T) {
	const trials = 2
	const passes = trials + 1 // one untallied warm-up plus measured trials
	trace := pktgen.Generate(pktgen.Config{
		Flows: 128, Packets: 2000, ZipfS: 1.1, Seed: 42})
	exact := make([]uint64, len(trace.FlowKeys))
	for _, f := range trace.FlowOf {
		exact[f]++
	}

	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		t.Run("cmsketch/"+flavor.String(), func(t *testing.T) {
			var base []uint32
			for _, shards := range []int{1, 2, 4} {
				insts, sh := openShards(t, runtime.Options{Shards: shards, PerCPU: true}, "cmsketch", flavor, trace)
				if _, err := harness.ParallelRun(trace.Clone(), insts, trials); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if n := len(sh.PerCPUCopies()); n != shards {
					t.Fatalf("shards=%d: per-CPU matrix has %d copies", shards, n)
				}
				ests := make([]uint32, len(trace.FlowKeys))
				for f := range trace.FlowKeys {
					key := trace.FlowKeys[f]
					est, ok := sh.Estimate(key[:])
					if !ok {
						t.Fatal("per-cpu cmsketch exposes no estimator")
					}
					if uint64(est) < passes*exact[f] {
						t.Fatalf("shards=%d flow %d: merged estimate %d below true count %d",
							shards, f, est, passes*exact[f])
					}
					ests[f] = est
				}
				if shards == 1 {
					base = ests
					continue
				}
				for f := range ests {
					if ests[f] != base[f] {
						t.Fatalf("shards=%d flow %d: merged estimate %d, want shard-count-invariant %d",
							shards, f, ests[f], base[f])
					}
				}
			}
		})
	}

	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		t.Run("nitrosketch/"+flavor.String(), func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				insts, sh := openShards(t, runtime.Options{Shards: shards, PerCPU: true}, "nitrosketch", flavor, trace)
				if _, err := harness.ParallelRun(trace.Clone(), insts, trials); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				// Metamorphic envelope: each per-row reading is an unbiased
				// sample-scaled count, but the row minimum biases low, so the
				// envelope is generous — a quarter of the truth below, twice
				// the truth plus noise allowance above. It catches the real
				// failure modes (copies not merged: estimates collapse toward
				// one shard's share; double counting: estimates explode)
				// without pinning sampling luck.
				for f := range trace.FlowKeys {
					if exact[f] < 64 {
						continue // tiny flows drown in sampling noise
					}
					key := trace.FlowKeys[f]
					est, ok := sh.Estimate(key[:])
					if !ok {
						t.Fatal("per-cpu nitrosketch exposes no estimator")
					}
					truth := passes * exact[f]
					if uint64(est) < truth/4 || uint64(est) > 2*truth+1024 {
						t.Fatalf("shards=%d flow %d: merged estimate %d outside envelope of true %d",
							shards, f, est, truth)
					}
				}
			}
		})
	}
}
