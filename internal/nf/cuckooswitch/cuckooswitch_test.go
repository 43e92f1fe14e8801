package cuckooswitch

import (
	"testing"

	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

const testBuckets = 64 // 512 slots

func build(t *testing.T, flavor nf.Flavor, trace *pktgen.Trace, nInsert int) *Switch {
	t.Helper()
	s, err := New(flavor, Config{Buckets: testBuckets})
	if err != nil {
		t.Fatalf("%v: %v", flavor, err)
	}
	for f := 0; f < nInsert; f++ {
		if !s.Insert(trace.FlowKeys[f][:], uint32(100+f)) {
			t.Fatalf("%v: insert flow %d failed", flavor, f)
		}
	}
	return s
}

func TestLookupHitAndMissAllFlavors(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 400, Packets: 0, Seed: 7})
	const inserted = 300
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		s := build(t, flavor, trace, inserted)
		var pkt [nf.PktSize]byte
		for f := 0; f < 400; f++ {
			copy(pkt[:], trace.FlowKeys[f][:])
			got, err := s.Process(pkt[:])
			if err != nil {
				t.Fatalf("%v: flow %d: %v", flavor, f, err)
			}
			if f < inserted {
				if got != uint64(100+f) {
					t.Fatalf("%v: flow %d: got %d, want %d", flavor, f, got, 100+f)
				}
			} else if got != Miss {
				// A signature collision can cause a false hit; with 32-bit
				// signatures over 400 flows this must not happen.
				t.Fatalf("%v: flow %d: false hit %d", flavor, f, got)
			}
		}
	}
}

func TestFlavorsAgreeOnTrace(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 256, Packets: 1000, ZipfS: 1.05, Seed: 8})
	k := build(t, nf.Kernel, trace, 200)
	e := build(t, nf.EBPF, trace, 200)
	n := build(t, nf.ENetSTL, trace, 200)
	for i := range trace.Packets {
		pk := trace.Packets[i][:]
		a, err1 := k.Process(pk)
		b, err2 := e.Process(pk)
		c, err3 := n.Process(pk)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("pkt %d: errs %v %v %v", i, err1, err2, err3)
		}
		if a != b || a != c {
			t.Fatalf("pkt %d: verdicts diverge kernel=%d ebpf=%d enetstl=%d", i, a, b, c)
		}
	}
}

func TestHighLoadInsertion(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 500, Packets: 0, Seed: 9})
	s, err := New(nf.Kernel, Config{Buckets: testBuckets})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for f := 0; f < 500; f++ {
		if s.Insert(trace.FlowKeys[f][:], uint32(100+f)) {
			ok++
		}
	}
	// Blocked cuckoo with 8-way buckets sustains very high load factors.
	if lf := s.LoadFactor(); lf < 0.9 {
		t.Fatalf("load factor %.2f < 0.9 (inserted %d)", lf, ok)
	}
}

// TestReinsertLastWriteWins: inserting a key that is already in the FIB
// updates its value in place, in every flavour: the lookup answers the
// last value written and the key keeps one slot. A full, saturated
// table still takes the update.
func TestReinsertLastWriteWins(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 2 * Slots, Packets: 0, Seed: 17})
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		s, err := New(flavor, Config{Buckets: testBuckets})
		if err != nil {
			t.Fatal(err)
		}
		key := trace.FlowKeys[0][:]
		if !s.Insert(key, 100) || !s.Insert(key, 200) {
			t.Fatalf("%v: insert refused", flavor)
		}
		var pkt [nf.PktSize]byte
		copy(pkt[:], key)
		if got, _ := s.Process(pkt[:]); got != 200 {
			t.Fatalf("%v: lookup answers %d after re-insert, want 200", flavor, got)
		}
		if used := s.LoadFactor() * testBuckets * Slots; used != 1 {
			t.Fatalf("%v: %v slots in use after re-inserting one key, want 1", flavor, used)
		}

		// One bucket: its Slots slots are both candidates of every key.
		one, err := New(flavor, Config{Buckets: 1})
		if err != nil {
			t.Fatal(err)
		}
		for f := range Slots {
			if !one.Insert(trace.FlowKeys[f][:], uint32(100+f)) {
				t.Fatalf("%v: insert %d into a free slot refused", flavor, f)
			}
		}
		if one.Insert(trace.FlowKeys[Slots][:], 1) || !one.saturated {
			t.Fatalf("%v: an insert into a full one-bucket table was accepted", flavor)
		}
		if !one.Insert(trace.FlowKeys[3][:], 999) {
			t.Fatalf("%v: the saturated table refused an update", flavor)
		}
		copy(pkt[:], trace.FlowKeys[3][:])
		if got, _ := one.Process(pkt[:]); got != 999 || one.LoadFactor() != 1 {
			t.Fatalf("%v: update answers %d at load %.2f, want 999 at 1", flavor, got, one.LoadFactor())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nf.Kernel, Config{Buckets: 100}); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := New(nf.Kernel, Config{Buckets: 0}); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

// LoadFactor returns occupied slots over capacity.
func (s *Switch) LoadFactor() float64 {
	used := 0
	for b := uint32(0); b < uint32(s.cfg.Buckets); b++ {
		for _, sg := range s.sigs(b) {
			if sg != 0 {
				used++
			}
		}
	}
	return float64(used) / float64(s.cfg.Buckets*Slots)
}

// TestSaturationBoundsKicks preloads four times the switch's capacity.
// From the first refused insert on, the preload performs at most one
// failed walk in total (≤ maxKicks displacements), not a walk per
// refusal: the saturated switch refuses without kicking, and keeps
// every entry it accepted.
func TestSaturationBoundsKicks(t *testing.T) {
	trace := pktgen.Generate(pktgen.Config{Flows: 4 * testBuckets * Slots, Packets: 0, Seed: 16})
	s, err := New(nf.Kernel, Config{Buckets: testBuckets})
	if err != nil {
		t.Fatal(err)
	}
	var accepted []int
	refused, atFirst := 0, 0
	for f := range trace.FlowKeys {
		before := s.Kicks()
		if s.Insert(trace.FlowKeys[f][:], uint32(100+f)) {
			accepted = append(accepted, f)
		} else {
			if refused == 0 {
				atFirst = before
			}
			refused++
		}
	}
	if len(accepted) > testBuckets*Slots || refused < 3*testBuckets*Slots {
		t.Fatalf("%d inserts accepted, %d refused, into %d slots", len(accepted), refused, testBuckets*Slots)
	}
	if atFirst == 0 {
		t.Fatal("no insert walked before the first refusal")
	}
	if got := s.Kicks() - atFirst; got > maxKicks {
		t.Fatalf("%d kicks from the first refused insert on, want <= %d", got, maxKicks)
	}
	var pkt [nf.PktSize]byte
	for _, f := range accepted {
		copy(pkt[:], trace.FlowKeys[f][:])
		if got, _ := s.Process(pkt[:]); got != uint64(100+f) {
			t.Fatalf("accepted flow %d: got %d, want %d", f, got, 100+f)
		}
	}
}
