package vm_test

import (
	"fmt"
	"strings"
	"testing"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
)

// TestFusedKindsOccurInCatalog pins the peephole fuser to the traffic:
// every fused kind the IR defines must occur in at least one program a
// catalog cell (every NF and composed app, eBPF and eNetSTL flavours)
// loads. A fusion written for a micro-benchmark that no NF contains
// fails here; so does one whose last catalog user went away. The
// static table it logs is the one in DESIGN.md §9 (go test -run
// TestFusedKindsOccurInCatalog -v ./internal/ebpf/vm/).
func TestFusedKindsOccurInCatalog(t *testing.T) {
	kinds := vm.FusedKindNames()
	for i, k := range kinds {
		if k == "" {
			t.Fatalf("fused kind #%d has no name in export_test.go: name it, and show the catalog program that contains it", i)
		}
	}

	type key struct {
		flavor nf.Flavor
		kind   string
	}
	sites, users := map[key]int{}, map[key]int{} // decoded slots; programs with at least one
	programs := map[nf.Flavor]int{}
	for _, cell := range nfcatalog.Cells(nfcatalog.GridConfig{Apps: true, Packets: 64, Flows: 64}) {
		if cell.Flavor == nf.Kernel {
			continue
		}
		var loaded []*vm.Program
		restore := vm.HookLoad(func(p *vm.Program) { loaded = append(loaded, p) })
		_, err := cell.Build()
		restore()
		if err != nil {
			t.Fatalf("%s: build: %v", cell, err)
		}
		if len(loaded) == 0 {
			t.Fatalf("%s: built without loading a program", cell)
		}
		programs[cell.Flavor] += len(loaded)
		for _, p := range loaded {
			for kind, n := range p.FusedSites() {
				sites[key{cell.Flavor, kind}] += n
				users[key{cell.Flavor, kind}]++
			}
		}
	}

	var table strings.Builder
	fmt.Fprintf(&table, "static fused sites over %d eBPF and %d eNetSTL catalog programs\n",
		programs[nf.EBPF], programs[nf.ENetSTL])
	fmt.Fprintf(&table, "%-16s %12s %12s %15s %15s\n", "kind", "eBPF sites", "eBPF progs", "eNetSTL sites", "eNetSTL progs")
	for _, kind := range kinds {
		e, s := key{nf.EBPF, kind}, key{nf.ENetSTL, kind}
		fmt.Fprintf(&table, "%-16s %12d %12d %15d %15d\n", kind, sites[e], users[e], sites[s], users[s])
		if sites[e]+sites[s] == 0 {
			t.Errorf("%s occurs in no catalog program: delete the kind, or show the NF that needs it", kind)
		}
	}
	t.Log("\n" + table.String())
}
