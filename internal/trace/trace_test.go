package trace

import (
	"encoding/json"
	goruntime "runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestRingOverrunDrops pins the BPF-ringbuf drop contract: a full ring
// rejects new events, counts every rejection, and keeps the first
// `capacity` events intact for the consumer; draining part of it
// re-admits exactly that many, in the next lap of the freed slots. The
// large ring asks for 3 chunks + 8 slots, rounds up to 4 chunks, and
// drains and refills across chunk boundaries.
func TestRingOverrunDrops(t *testing.T) {
	for _, tc := range []struct{ ask, capacity int }{{8, 8}, {3*chunkSlots + 8, 4 * chunkSlots}} {
		r := NewRecorder(Config{Capacity: tc.ask})
		if r.Capacity() != tc.capacity {
			t.Fatalf("capacity %d: Capacity() = %d, want %d", tc.ask, r.Capacity(), tc.capacity)
		}
		n := uint64(tc.capacity)
		val := uint64(0)
		emit := func(k uint64) (admitted uint64) {
			for ; k > 0; k-- {
				if r.Emit(Event{Kind: KindVerdict, Val: val}) {
					admitted++
				}
				val++
			}
			return admitted
		}
		// drain takes k events and checks they are the next k in FIFO
		// order: Seq counts admitted events, Val every attempt.
		nextSeq := uint64(0)
		drain := func(k int, firstVal uint64) {
			t.Helper()
			evs := r.Drain(k)
			if len(evs) != k {
				t.Fatalf("capacity %d: drained %d events, want %d", tc.capacity, len(evs), k)
			}
			for i, ev := range evs {
				if ev.Seq != nextSeq || ev.Val != firstVal+uint64(i) {
					t.Fatalf("capacity %d: event %d: seq=%d val=%d, want seq=%d val=%d (FIFO)",
						tc.capacity, i, ev.Seq, ev.Val, nextSeq, firstVal+uint64(i))
				}
				nextSeq++
			}
		}

		const over = 12
		if got := emit(n + over); got != n || r.Emitted() != n || r.Drops() != over {
			t.Fatalf("capacity %d: %d admitted, emitted %d, drops %d; want %d, %d, %d",
				tc.capacity, got, r.Emitted(), r.Drops(), n, n, over)
		}
		// Draining part of the ring (across a chunk boundary in the large
		// one) re-admits exactly that many, then the ring is full again.
		k := n/2 + 3
		drain(int(k), 0)
		refill := val
		if got := emit(k); got != k || r.Drops() != over {
			t.Fatalf("capacity %d: after draining %d, %d re-admitted with drops %d, want %d with %d",
				tc.capacity, k, got, r.Drops(), k, over)
		}
		if r.Emit(Event{Kind: KindVerdict}) || r.Drops() != over+1 {
			t.Fatalf("capacity %d: a full ring admitted an event (drops %d)", tc.capacity, r.Drops())
		}
		// What is left of the first lap, then the refill, in order.
		drain(int(n-k), k)
		drain(int(k), refill)
		if left := len(r.Drain(0)); left != 0 {
			t.Fatalf("capacity %d: %d events left after draining everything", tc.capacity, left)
		}
	}
}

// TestRacingFirstChunk: eight producers released together on a fresh
// ring all find its first chunk missing and race to install it (and the
// next ones); every event lands exactly once, in per-producer order.
func TestRacingFirstChunk(t *testing.T) {
	const producers, perProd = 8, 100
	for trial := 0; trial < 20; trial++ {
		r := NewRecorder(Config{Capacity: 4 * chunkSlots})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				for i := 0; i < perProd; i++ {
					if !r.Emit(Event{Kind: KindHelper, Val: uint64(p)<<32 | uint64(i)}) {
						t.Errorf("producer %d: event %d dropped on a ring with room", p, i)
					}
				}
			}(p)
		}
		close(start)
		wg.Wait()
		evs := r.Drain(0)
		if len(evs) != producers*perProd || r.Drops() != 0 {
			t.Fatalf("trial %d: drained %d events with %d drops, want %d and 0", trial, len(evs), r.Drops(), producers*perProd)
		}
		// Seq is drawn after the slot is won, so racing producers may take
		// theirs out of slot order; each one is still handed out once.
		next := make([]uint64, producers)
		seen := make([]bool, len(evs))
		for i, ev := range evs {
			p, n := ev.Val>>32, ev.Val&(1<<32-1)
			if ev.Seq >= uint64(len(seen)) || seen[ev.Seq] || n != next[p] {
				t.Fatalf("trial %d: event %d is seq %d, producer %d's #%d; want a fresh seq and #%d", trial, i, ev.Seq, p, n, next[p])
			}
			seen[ev.Seq] = true
			next[p]++
		}
	}
}

// TestRingMemoryFollowsEvents: capacity is a ceiling, not an
// allocation. A 65536-event ring costs its chunk table up front (2 KB,
// not the 7.5 MB of its slots) and one chunk per 256 events written.
func TestRingMemoryFollowsEvents(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		f()
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var r *Recorder
	if got := allocated(func() { r = NewRecorder(Config{Capacity: 65536}) }); got >= 16<<10 {
		t.Fatalf("NewRecorder(65536) allocated %d bytes up front, want < 16 KB", got)
	}
	// A chunk's allocation is its size rounded up to the allocator's
	// size class.
	lo, hi := uint64(unsafe.Sizeof(chunk{})), uint64(unsafe.Sizeof(chunk{}))+4<<10
	for c := 0; c < 4; c++ {
		got := allocated(func() {
			for i := 0; i < chunkSlots; i++ {
				r.Emit(Event{Kind: KindVerdict, Val: uint64(i)})
			}
		})
		if got < lo || got > hi {
			t.Fatalf("chunk %d: 256 events allocated %d bytes, want one chunk (%d-%d)", c, got, lo, hi)
		}
	}
	if r.Emitted() != 4*chunkSlots || r.Drops() != 0 {
		t.Fatalf("emitted %d with %d drops, want %d and 0", r.Emitted(), r.Drops(), 4*chunkSlots)
	}
}

// TestSamplingDeterminism is the seeded head-sampling contract: the
// sampled packet set is a pure function of (seed, arrival index).
func TestSamplingDeterminism(t *testing.T) {
	const n = 4000
	draw := func(seed uint64, rate float64) []bool {
		r := NewRecorder(Config{Capacity: 16, SampleRate: rate, Seed: seed})
		out := make([]bool, n)
		for i := range out {
			pkt, ok := r.SamplePacket()
			if pkt != uint64(i) {
				t.Fatalf("packet index %d, want %d", pkt, i)
			}
			out[i] = ok
		}
		return out
	}

	a, b := draw(42, 0.25), draw(42, 0.25)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d: same seed sampled differently", i)
		}
		if a[i] {
			hits++
		}
	}
	// The admitted fraction tracks the rate (binomial, wide tolerance).
	if frac := float64(hits) / n; frac < 0.18 || frac > 0.32 {
		t.Fatalf("sample fraction %.3f far from rate 0.25", frac)
	}

	c := draw(43, 0.25)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical sample sets")
	}

	// Rate <= 0 and >= 1 both mean "sample everything".
	for _, rate := range []float64{0, 1, 1.5} {
		s := draw(7, rate)
		for i, ok := range s {
			if !ok {
				t.Fatalf("rate %g: packet %d not sampled", rate, i)
			}
		}
	}
}

// TestConcurrentEmit hammers one ring from many producers (one recorder
// shared by concurrently replaying instances) while a consumer drains, and
// checks conservation: every attempt is either consumed, still
// buffered, or counted as a drop, and no event is duplicated.
func TestConcurrentEmit(t *testing.T) {
	const (
		producers = 8
		perProd   = 5000
	)
	r := NewRecorder(Config{Capacity: 1024})
	doneProducing := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				r.Emit(Event{Kind: KindHelper, Val: uint64(p)<<32 | uint64(i)})
			}
		}(p)
	}
	seen := make(map[uint64]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		consume := func() int {
			evs := r.Drain(256)
			for _, ev := range evs {
				if seen[ev.Seq] {
					t.Errorf("seq %d consumed twice", ev.Seq)
				}
				seen[ev.Seq] = true
			}
			return len(evs)
		}
		for {
			select {
			case <-doneProducing:
				// Producers are done; drain whatever is left.
				for consume() > 0 {
				}
				return
			default:
				consume()
			}
		}
	}()
	wg.Wait()
	close(doneProducing)
	<-done

	total := uint64(producers * perProd)
	if got := r.Emitted() + r.Drops(); got != total {
		t.Fatalf("emitted(%d)+drops(%d) = %d, want %d", r.Emitted(), r.Drops(), got, total)
	}
	if uint64(len(seen)) != r.Emitted() {
		t.Fatalf("consumed %d events, emitted %d", len(seen), r.Emitted())
	}
}

// TestMergeByTime checks the per-shard ring merge: output ordered by
// (TS, Shard, Seq).
func TestMergeByTime(t *testing.T) {
	a := []Event{{TS: 5, Shard: 0, Seq: 0}, {TS: 9, Shard: 0, Seq: 1}}
	b := []Event{{TS: 3, Shard: 1, Seq: 0}, {TS: 5, Shard: 1, Seq: 1}, {TS: 7, Shard: 1, Seq: 2}}
	got := MergeByTime(a, b)
	want := []Event{
		{TS: 3, Shard: 1, Seq: 0},
		{TS: 5, Shard: 0, Seq: 0},
		{TS: 5, Shard: 1, Seq: 1},
		{TS: 7, Shard: 1, Seq: 2},
		{TS: 9, Shard: 0, Seq: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEventJSON round-trips the JSONL encoding /trace streams.
func TestEventJSON(t *testing.T) {
	ev := Event{Seq: 3, TS: 99, Kind: KindMapOp, Shard: 2, Pkt: 7,
		Flow: 0xdeadbeef, Name: "hash", Op: "lookup", Miss: true}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != ev {
		t.Fatalf("round trip %+v != %+v", back, ev)
	}
	if _, ok := KindFromString("verdict"); !ok {
		t.Fatal("KindFromString(verdict) failed")
	}
}

// TestForShardDerivation: per-shard configs decorrelate seeds but keep
// capacity/rate, and stamp the shard id.
func TestForShardDerivation(t *testing.T) {
	base := Config{Capacity: 64, SampleRate: 0.5, Seed: 9}
	c0, c1 := base.ForShard(0), base.ForShard(1)
	if c0.Seed == c1.Seed {
		t.Fatal("shard seeds not decorrelated")
	}
	if c0.Shard != 0 || c1.Shard != 1 {
		t.Fatalf("shard stamps %d/%d", c0.Shard, c1.Shard)
	}
	if c1.Capacity != 64 || c1.SampleRate != 0.5 {
		t.Fatal("ForShard must preserve capacity and rate")
	}
	r := NewRecorder(c1)
	r.Emit(Event{Kind: KindVerdict})
	if evs := r.Drain(0); len(evs) != 1 || evs[0].Shard != 1 {
		t.Fatalf("emitted event not stamped with shard: %+v", evs)
	}
}
