package conntrack

import (
	"testing"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

var cfg = Config{Entries: 64}

func TestFlavorsAgree(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 200, Packets: 3000, ZipfS: 1.1, Seed: 9})
	k, err := New(nf.Kernel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(nf.EBPF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Packets {
		vk, err := k.Process(trace.Packets[i][:])
		if err != nil {
			t.Fatal(err)
		}
		ve, err := e.Process(trace.Packets[i][:])
		if err != nil {
			t.Fatal(err)
		}
		if vk != ve {
			t.Fatalf("packet %d: kernel %d vs ebpf %d", i, vk, ve)
		}
		if vk != uint64(Tracked) {
			t.Fatalf("packet %d: verdict %d, want Tracked (LRU never refuses)", i, vk)
		}
	}
}

// refusingMap refuses every insert, the way a table out of memory does.
type refusingMap struct{ maps.ArenaMap }

func (refusingMap) Update(key, value []byte) error { return maps.ErrNoSpace }

func TestShedsWhenUpdateRefused(t *testing.T) {
	k, err := New(nf.Kernel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.SetMap(refusingMap{k.Map()})
	pkt := make([]byte, nf.PktSize)
	pkt[0] = 7
	v, err := k.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if v != uint64(Shed) {
		t.Fatalf("verdict %d, want Shed when the table refuses the insert", v)
	}
}

func TestCounts(t *testing.T) {
	k, err := New(nf.Kernel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, nf.PktSize)
	pkt[3] = 9
	for i := 0; i < 5; i++ {
		if _, err := k.Process(pkt); err != nil {
			t.Fatal(err)
		}
	}
	v := k.Map().Lookup(pkt[:nf.KeyLen])
	if v == nil {
		t.Fatal("flow not tracked")
	}
	if got := uint64(v[0]); got != 5 {
		t.Fatalf("pkts = %d, want 5", got)
	}
}

func TestNoENetSTLFlavor(t *testing.T) {
	if _, err := New(nf.ENetSTL, cfg); err == nil {
		t.Fatal("expected an error for the eNetSTL flavour")
	}
}
