package cuckooswitch

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"enetstl/internal/nf"
)

// imageKey is the 16-byte flow key the image tests derive from a small
// id, so an op stream can repeat a key.
func imageKey(id uint16) []byte {
	k := make([]byte, nf.KeyLen)
	binary.LittleEndian.PutUint16(k, id)
	k[nf.KeyLen-1] = 0xa5
	return k
}

// checkImage asserts the one-image invariant on s: the arena holds the
// little-endian serialisation of the native table, and the VM program
// answers exactly as lookupNative does on each of keys.
func checkImage(t testing.TB, s *Switch, step int, keys [][]byte) {
	t.Helper()
	want := make([]byte, len(s.table)*4)
	for i, v := range s.table {
		binary.LittleEndian.PutUint32(want[i*4:], v)
	}
	if got := s.arr.Data(); !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v after insert %d: arena byte %d (table word %d) is %#x, native table has %#x",
					s.Flavor(), step, i, i/4, got[i], want[i])
			}
		}
	}
	var pkt [nf.PktSize]byte
	for _, k := range keys {
		copy(pkt[nf.OffKey:], k)
		got, err := s.Process(pkt[:])
		if err != nil {
			t.Fatalf("%v after insert %d: key %x: %v", s.Flavor(), step, k, err)
		}
		if native := s.lookupNative(pkt[:]); got != native {
			t.Fatalf("%v after insert %d: key %x: program says %d, native table says %d",
				s.Flavor(), step, k, got, native)
		}
	}
}

// entry names the slot a key's insert fills or updates: keys with the
// same signature and the same candidate-bucket pair share it, since the
// lookup cannot tell them apart.
type entry struct{ sig, pair uint32 }

func entryOf(key []byte, mask uint32) entry {
	_, sig, i1 := mix(key)
	i1 &= mask
	return entry{sig, min(i1, altBucket(i1, sig, mask))}
}

// checkMembers asserts that no accepted insert was lost and the last
// write wins: the table holds one slot per entry an accepted insert
// wrote (a re-insert updates its slot, a refused insert left none behind
// and displaced none), and the native lookup answers each accepted key
// with the value last written to its entry — which checkImage has
// already held both bytecode flavours to.
func checkMembers(t testing.TB, s *Switch, step int, model map[entry]uint32, members [][]byte) {
	t.Helper()
	used := 0
	for b := range uint32(s.cfg.Buckets) {
		for _, sg := range s.sigs(b) {
			if sg != 0 {
				used++
			}
		}
	}
	if used != len(model) {
		t.Fatalf("%v after insert %d: %d slots in use, %d entries written", s.Flavor(), step, used, len(model))
	}
	mask := uint32(s.cfg.Buckets - 1)
	var pkt [nf.PktSize]byte
	for _, k := range members {
		copy(pkt[nf.OffKey:], k)
		if got, want := s.lookupNative(pkt[:]), uint64(model[entryOf(k, mask)]); got != want {
			t.Fatalf("%v after insert %d: accepted key %x answers %d, last written %d", s.Flavor(), step, k, got, want)
		}
	}
}

// driveImage inserts ids one at a time into an eBPF and an eNetSTL
// switch of the given size, checking the invariant after every insert
// over every key inserted so far plus keys never inserted. It reports
// how many inserts (both flavours counted) took the kick path and how
// many of those failed.
func driveImage(t testing.TB, buckets int, ids []uint16) (kicked, failed int) {
	t.Helper()
	for _, flavor := range []nf.Flavor{nf.EBPF, nf.ENetSTL} {
		s, err := New(flavor, Config{Buckets: buckets})
		if err != nil {
			t.Fatal(err)
		}
		mask := uint32(buckets - 1)
		keys := [][]byte{imageKey(0xfff0), imageKey(0xfff1), imageKey(0xfff2), imageKey(0xfff3)}
		model := map[entry]uint32{} // last value written to each entry
		var members [][]byte        // keys whose Insert returned true, repeats included
		full := func(b uint32) bool {
			for _, sg := range s.sigs(b) {
				if sg == 0 {
					return false
				}
			}
			return true
		}
		for step, id := range ids {
			k := imageKey(id & 0x7fff)
			e := entryOf(k, mask)
			_, present := model[e]
			_, sig, i1 := mix(k)
			i1 &= mask
			kicks := !present && full(i1) && full(altBucket(i1, sig, mask))
			value := uint32(100 + step)
			ok := s.Insert(k, value)
			if ok {
				members = append(members, k)
				model[e] = value
			}
			if kicks {
				kicked++
				if !ok {
					failed++
				}
			} else if !ok {
				t.Fatalf("%v: insert %d failed with its entry present or a free candidate slot", flavor, step)
			}
			keys = append(keys, k)
			checkImage(t, s, step, keys)
			checkMembers(t, s, step, model, members)
		}
	}
	return kicked, failed
}

// TestOneImageInvariant drives seeded random insert sequences through
// tables small enough that most inserts kick and some exhaust the
// 500-kick budget, which must undo the walk and saturate the switch.
func TestOneImageInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kicked, failed := 0, 0
	for _, buckets := range []int{1, 2, 4, 8} {
		ids := make([]uint16, buckets*Slots+24)
		for i := range ids {
			ids[i] = uint16(rng.Intn(1 << 15))
		}
		// Re-insert the first few keys, into a table by now full and
		// usually saturated: each must update its entry.
		ids = append(ids, ids[:4]...)
		k, f := driveImage(t, buckets, ids)
		kicked, failed = kicked+k, failed+f
	}
	if kicked == failed || failed == 0 {
		t.Fatalf("%d inserts kicked, %d of them failed; want both outcomes covered", kicked, failed)
	}
}

// FuzzCuckooImage is the same check over an op stream from the fuzz
// input: byte 0 picks the table size, each following pair is a key id;
// a repeated id must update its entry to the value last written.
func FuzzCuckooImage(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{3, 41, 161} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	// A preload past capacity at the largest size: 96 distinct keys into
	// 8 buckets, so a walk fails and every later full-bucket insert meets
	// a saturated table.
	past := []byte{3}
	for id := range uint16(96) {
		past = binary.LittleEndian.AppendUint16(past, id)
	}
	f.Add(past)
	// Repeated ids: one re-inserted while its bucket has room, then, in a
	// one-bucket table, four re-inserted after it saturated.
	f.Add([]byte{3, 5, 0, 7, 0, 5, 0})
	again := []byte{0}
	for _, id := range []uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 3, 9, 7} {
		again = binary.LittleEndian.AppendUint16(again, id)
	}
	f.Add(again)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buckets := 1 << (data[0] % 4)
		data = data[1:]
		ids := make([]uint16, 0, 96)
		for ; len(data) >= 2 && len(ids) < cap(ids); data = data[2:] {
			ids = append(ids, binary.LittleEndian.Uint16(data))
		}
		driveImage(t, buckets, ids)
	})
}
