package experiments

import (
	"fmt"

	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// Parallel regenerates the scale-out experiment: aggregate throughput
// of RSS-sharded replay versus shard count, for representative Fig. 3
// NFs in both VM flavours. Each shard is an independent instance (own
// VM, own maps) fed the flows its 5-tuple hash assigns it, so the
// sweep measures the same per-CPU scaling model multi-queue NICs give
// kernel NFs. The verdict column cross-checks shard-count invariance:
// every row must tally identical verdicts at every shard count.
//
// Scaling is only physically near-linear when the host grants the
// process as many cores as shards (GOMAXPROCS >= shards); on fewer
// cores the goroutines time-slice and aggregate throughput plateaus.
func Parallel(opts Options) (*Table, error) {
	o := opts.withDefaults()
	var counts []int
	for n := 1; n <= o.Shards; n *= 2 {
		counts = append(counts, n)
	}
	header := []string{"NF", "flavor"}
	for _, n := range counts {
		header = append(header, fmt.Sprintf("Mpps@%d", n))
	}
	header = append(header, fmt.Sprintf("scale@%d", counts[len(counts)-1]), "invariant")
	t := &Table{
		ID: "parallel", Title: "RSS-sharded parallel replay (per-shard VMs, flow-hash partitioning)",
		Header: header,
		Notes:  "scale@N = aggregate Mpps at N shards / Mpps at 1 shard; invariant = merged verdicts identical across shard counts",
	}
	for _, name := range []string{"cuckooswitch", "cmsketch", "cuckoofilter"} {
		for _, flavor := range []nf.Flavor{nf.EBPF, nf.ENetSTL} {
			trace := pktgen.Generate(pktgen.Config{
				Flows: 1024, Packets: o.Packets, ZipfS: 1.1, Seed: 860})
			row := []string{name, flavor.String()}
			var base float64
			var want harness.VerdictCounts
			invariant := true
			for i, shards := range counts {
				built, _, err := nfcatalog.Open(runtime.Options{Shards: shards}, name, flavor, trace)
				if err != nil {
					return nil, fmt.Errorf("parallel %s/%v shards=%d: %w", name, flavor, shards, err)
				}
				res, err := harness.ParallelRun(trace.Clone(), nfcatalog.Attach(runtime.Options{}, name, built...).Insts, o.Trials)
				if err != nil {
					return nil, fmt.Errorf("parallel %s/%v shards=%d: %w", name, flavor, shards, err)
				}
				if i == 0 {
					base = res.PPS
					want = res.Verdicts
				} else if res.Verdicts != want {
					invariant = false
				}
				row = append(row, mpps(res.PPS))
				if i == len(counts)-1 {
					row = append(row, ratio(res.PPS, base))
				}
			}
			if invariant {
				row = append(row, "yes")
			} else {
				row = append(row, "NO")
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
