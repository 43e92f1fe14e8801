package cuckoofilter

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
// answers exactly as testNative does on each of keys.
func checkImage(t testing.TB, s *Filter, step int, keys [][]byte) {
	t.Helper()
	want := make([]byte, len(s.table)*2)
	for i, v := range s.table {
		binary.LittleEndian.PutUint16(want[i*2:], v)
	}
	if got := s.arr.Data(); !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v after insert %d: arena byte %d (table slot %d) is %#x, native table has %#x",
					s.Flavor(), step, i, i/2, got[i], want[i])
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
		if native := s.testNative(pkt[:]); got != native {
			t.Fatalf("%v after insert %d: key %x: program says %d, native table says %d",
				s.Flavor(), step, k, got, native)
		}
	}
}

// checkMembers asserts that no accepted insert was lost: the table holds
// one fingerprint per accepted insert (a refused one left none behind
// and displaced none), and the native test finds every accepted key —
// which checkImage has already held both bytecode flavours to.
func checkMembers(t testing.TB, s *Filter, step int, members [][]byte) {
	t.Helper()
	used := 0
	for _, fp := range s.table {
		if fp != 0 {
			used++
		}
	}
	if used != len(members) {
		t.Fatalf("%v after insert %d: %d slots in use, %d inserts accepted", s.Flavor(), step, used, len(members))
	}
	var pkt [nf.PktSize]byte
	for _, k := range members {
		copy(pkt[nf.OffKey:], k)
		if s.testNative(pkt[:]) != Member {
			t.Fatalf("%v after insert %d: accepted key %x is no longer a member", s.Flavor(), step, k)
		}
	}
}

// driveImage inserts ids one at a time into an eBPF and an eNetSTL
// filter of the given size, checking the invariant after every insert
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
		var members [][]byte // keys whose Insert returned true, repeats included
		full := func(b uint32) bool {
			for _, have := range s.bucket(b) {
				if have == 0 {
					return false
				}
			}
			return true
		}
		for step, id := range ids {
			k := imageKey(id & 0x7fff)
			fp, i1 := mix(k)
			i1 &= mask
			kicks := full(i1) && full(altBucket(i1, fp, mask))
			ok := s.Insert(k)
			if ok {
				members = append(members, k)
			}
			if kicks {
				kicked++
				if !ok {
					failed++
				}
			} else if !ok {
				t.Fatalf("%v: insert %d failed with a free candidate slot", flavor, step)
			}
			keys = append(keys, k)
			checkImage(t, s, step, keys)
			checkMembers(t, s, step, members)
		}
	}
	return kicked, failed
}

// TestOneImageInvariant drives seeded random insert sequences through
// tables small enough that most inserts kick and some exhaust the
// 500-kick budget, which must undo the walk and saturate the filter.
func TestOneImageInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kicked, failed := 0, 0
	for _, buckets := range []int{1, 2, 4, 8} {
		ids := make([]uint16, buckets*Slots+24)
		for i := range ids {
			ids[i] = uint16(rng.Intn(1 << 15))
		}
		k, f := driveImage(t, buckets, ids)
		kicked, failed = kicked+k, failed+f
	}
	if kicked == failed || failed == 0 {
		t.Fatalf("%d inserts kicked, %d of them failed; want both outcomes covered", kicked, failed)
	}
}

// FuzzCuckooImage is the same check over an op stream from the fuzz
// input: byte 0 picks the table size, each following pair is a key id.
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
