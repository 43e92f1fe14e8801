package cuckoofilter

import (
	"testing"

	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

const testBuckets = 128 // 512 slots

func build(t *testing.T, flavor nf.Flavor, trace *pktgen.Trace, nInsert int) *Filter {
	t.Helper()
	f, err := New(flavor, Config{Buckets: testBuckets})
	if err != nil {
		t.Fatalf("%v: %v", flavor, err)
	}
	for i := 0; i < nInsert; i++ {
		if !f.Insert(trace.FlowKeys[i][:]) {
			t.Fatalf("%v: insert %d failed", flavor, i)
		}
	}
	return f
}

func TestNoFalseNegativesAllFlavors(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 300, Packets: 0, Seed: 11})
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		f := build(t, flavor, trace, 300)
		var pkt [nf.PktSize]byte
		for i := 0; i < 300; i++ {
			copy(pkt[:], trace.FlowKeys[i][:])
			got, err := f.Process(pkt[:])
			if err != nil {
				t.Fatalf("%v: %v", flavor, err)
			}
			if got != Member {
				t.Fatalf("%v: inserted flow %d reported absent", flavor, i)
			}
		}
	}
}

func TestFalsePositiveRateBounded(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 2300, Packets: 0, Seed: 12})
	f := build(t, nf.Kernel, trace, 300)
	var pkt [nf.PktSize]byte
	fp := 0
	for i := 300; i < 2300; i++ {
		copy(pkt[:], trace.FlowKeys[i][:])
		if got, _ := f.Process(pkt[:]); got == Member {
			fp++
		}
	}
	// 16-bit fingerprints, 4-way buckets: theoretical FP rate ~ 2*4/2^16
	// ≈ 0.012%; allow an order of magnitude of slack over 2000 probes.
	if fp > 3 {
		t.Fatalf("false positives: %d / 2000", fp)
	}
}

func TestFlavorsAgree(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 600, Packets: 800, Seed: 13})
	k := build(t, nf.Kernel, trace, 400)
	e := build(t, nf.EBPF, trace, 400)
	n := build(t, nf.ENetSTL, trace, 400)
	for i := range trace.Packets {
		pk := trace.Packets[i][:]
		a, _ := k.Process(pk)
		b, _ := e.Process(pk)
		c, _ := n.Process(pk)
		if a != b || a != c {
			t.Fatalf("pkt %d: verdicts diverge %d %d %d", i, a, b, c)
		}
	}
}

func TestHighLoad(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 490, Packets: 0, Seed: 14})
	f, _ := New(nf.Kernel, Config{Buckets: testBuckets})
	for i := 0; i < 490; i++ {
		f.Insert(trace.FlowKeys[i][:])
	}
	if lf := f.LoadFactor(); lf < 0.9 {
		t.Fatalf("load factor %.2f < 0.9", lf)
	}
}

// LoadFactor returns occupied slots over capacity.
func (f *Filter) LoadFactor() float64 {
	used := 0
	for _, fp := range f.table {
		if fp != 0 {
			used++
		}
	}
	return float64(used) / float64(len(f.table))
}

// TestSaturationBoundsKicks preloads four times the filter's capacity.
// From the first refused insert on, the preload performs at most one
// failed walk in total (≤ maxKicks displacements), not a walk per
// refusal: the saturated filter refuses without kicking.
func TestSaturationBoundsKicks(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 4 * testBuckets * Slots, Packets: 0, Seed: 16})
	f, err := New(nf.Kernel, Config{Buckets: testBuckets})
	if err != nil {
		t.Fatal(err)
	}
	refused, atFirst := 0, 0
	for i := range trace.FlowKeys {
		before := f.Kicks()
		if !f.Insert(trace.FlowKeys[i][:]) {
			if refused == 0 {
				atFirst = before
			}
			refused++
		}
	}
	if accepted := len(trace.FlowKeys) - refused; accepted > testBuckets*Slots || refused < 3*testBuckets*Slots {
		t.Fatalf("%d inserts accepted, %d refused, into %d slots", accepted, refused, testBuckets*Slots)
	}
	if atFirst == 0 {
		t.Fatal("no insert walked before the first refusal")
	}
	if got := f.Kicks() - atFirst; got > maxKicks {
		t.Fatalf("%d kicks from the first refused insert on, want <= %d", got, maxKicks)
	}
}
