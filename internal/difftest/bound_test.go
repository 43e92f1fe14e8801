package difftest

import (
	"testing"

	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
)

// TestBoundSlackFollowsFlowTable: the collision slack of an estimator
// bound is chosen by the flow table the oracle is handed — the tight
// value up to the benign grid's 256 flows, the wide one beyond — and by
// nothing else.
func TestBoundSlackFollowsFlowTable(t *testing.T) {
	for _, tc := range []struct {
		name        string
		tight, wide float64
	}{
		{"cmsketch", 16, 32},
		{"heavykeeper", 4, 16},
	} {
		for _, flows := range []int{32, pinnedFlows, pinnedFlows + 1, 704} {
			tr := pktgen.Generate(pktgen.Config{Flows: flows, Packets: 1, Seed: 1})
			built, err := nfcatalog.BuildFull(tc.name, nf.Kernel, tr)
			if err != nil {
				t.Fatal(err)
			}
			// Nothing replayed and nothing counted: the bound is its
			// slack alone.
			got, err := oracles(built).Bound(tr.FlowKeys, make([]uint32, flows))
			if err != nil {
				t.Fatalf("%s over %d silent flows: %v", tc.name, flows, err)
			}
			want := tc.tight
			if flows > pinnedFlows {
				want = tc.wide
			}
			if got != want {
				t.Errorf("%s over %d flows: slack %v, want %v", tc.name, flows, got, want)
			}
		}
	}
}
