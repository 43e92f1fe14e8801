package nfcatalog

import (
	"testing"

	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// TestSupports pins the two flavour gaps and that unknown names are
// supported in no flavour; Cells and the daemon both decide from here.
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
	cells := 0
	for _, name := range Names() {
		cells += len(SupportedFlavors(name))
	}
	if got := len(Cells(GridConfig{Packets: 1, Flows: 1})); got != cells || cells != 43 {
		t.Errorf("Cells lists %d cells, SupportedFlavors sums to %d, want 43", got, cells)
	}
	if fl := SupportedFlavors("nosuch"); len(fl) != 0 {
		t.Errorf("SupportedFlavors of an unknown name = %v", fl)
	}
}

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
			b, err := BuildFull(tc.name, nf.Kernel, tr)
			if err != nil {
				t.Fatal(err)
			}
			// Nothing replayed and nothing counted: the bound is its
			// slack alone.
			got, err := b.Bound(tr.FlowKeys, make([]uint32, flows))
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
