package timewheel

import (
	"encoding/binary"
	"testing"

	"enetstl/internal/nf"
)

func enq(t *testing.T, w *Wheel, ts uint64, flow uint64) {
	t.Helper()
	pkt := make([]byte, nf.PktSize)
	binary.LittleEndian.PutUint64(pkt[nf.OffKey:], flow)
	binary.LittleEndian.PutUint32(pkt[nf.OffOp:], nf.OpEnqueue)
	binary.LittleEndian.PutUint64(pkt[nf.OffTS:], ts)
	if got, err := w.Process(pkt); err != nil {
		t.Fatalf("enqueue ts=%d: %v", ts, err)
	} else if got != 2 {
		t.Fatalf("enqueue ts=%d: verdict %d", ts, got)
	}
}

func deq(t *testing.T, w *Wheel) int {
	t.Helper()
	pkt := make([]byte, nf.PktSize)
	binary.LittleEndian.PutUint32(pkt[nf.OffOp:], nf.OpDequeue)
	got, err := w.Process(pkt)
	if err != nil {
		t.Fatalf("dequeue: %v", err)
	}
	if got < DrainBase {
		t.Fatalf("dequeue verdict %d", got)
	}
	return int(got - DrainBase)
}

func TestDrainByDeadlineAllFlavors(t *testing.T) {
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		w, err := New(flavor, Config{Slots: 64})
		if err != nil {
			t.Fatalf("%v: %v", flavor, err)
		}
		// Three packets at t=0, two at t=1, one at t=5.
		enq(t, w, 0, 100)
		enq(t, w, 0, 101)
		enq(t, w, 0, 102)
		enq(t, w, 1, 103)
		enq(t, w, 1, 104)
		enq(t, w, 5, 105)
		wantPerTick := []int{3, 2, 0, 0, 0, 1}
		for tick, want := range wantPerTick {
			if got := deq(t, w); got != want {
				t.Fatalf("%v: tick %d drained %d, want %d", flavor, tick, got, want)
			}
		}
		if w.Clock() != 6 {
			t.Fatalf("%v: clock = %d, want 6", flavor, w.Clock())
		}
	}
}

func TestLateArrivalsGoToCurrentSlot(t *testing.T) {
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		w, err := New(flavor, Config{Slots: 16})
		if err != nil {
			t.Fatal(err)
		}
		// Advance the clock to 10.
		for i := 0; i < 10; i++ {
			deq(t, w)
		}
		// A packet with a stale deadline lands in the current slot.
		enq(t, w, 3, 200)
		if got := deq(t, w); got != 1 {
			t.Fatalf("%v: stale packet drained at wrong tick (got %d)", flavor, got)
		}
	}
}

func TestDrainBatchBounded(t *testing.T) {
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		w, err := New(flavor, Config{Slots: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < DrainBatch+5; i++ {
			enq(t, w, 0, uint64(i))
		}
		if got := deq(t, w); got != DrainBatch {
			t.Fatalf("%v: first drain %d, want %d", flavor, got, DrainBatch)
		}
		// The remainder stays queued (the clock has moved past the slot;
		// a full wheel revolution reaches it again).
		total := 0
		for i := 0; i < 8; i++ {
			total += deq(t, w)
		}
		if total != 5 {
			t.Fatalf("%v: residue drained %d, want 5", flavor, total)
		}
	}
}

func TestWrapAround(t *testing.T) {
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		w, err := New(flavor, Config{Slots: 4})
		if err != nil {
			t.Fatal(err)
		}
		enq(t, w, 6, 1) // slot 6&3 = 2, reached at tick 6 (or 2 — same slot)
		drained := 0
		for i := 0; i < 4; i++ {
			drained += deq(t, w)
		}
		if drained != 1 {
			t.Fatalf("%v: drained %d, want 1", flavor, drained)
		}
	}
}

func TestSlotsValidated(t *testing.T) {
	if _, err := New(nf.Kernel, Config{Slots: 100}); err == nil {
		t.Fatal("non-power-of-two slots accepted")
	}
}

// Clock returns the wheel's current slot time.
func (w *Wheel) Clock() uint64 {
	if w.state != nil {
		return binary.LittleEndian.Uint64(w.state.Data())
	}
	return w.clk
}
