package pktgen

import (
	"encoding/binary"
	"testing"

	"enetstl/internal/nf"
)

func TestDeterministic(t *testing.T) {
	a := Generate(Config{Flows: 32, Packets: 500, ZipfS: 1.1, Seed: 9})
	b := Generate(Config{Flows: 32, Packets: 500, ZipfS: 1.1, Seed: 9})
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs across same-seed runs", i)
		}
	}
	c := Generate(Config{Flows: 32, Packets: 500, ZipfS: 1.1, Seed: 10})
	same := true
	for i := range a.Packets {
		if a.Packets[i] != c.Packets[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestKeysDistinctAndWellFormed(t *testing.T) {
	tr := Generate(Config{Flows: 2000, Packets: 0, Seed: 1})
	seen := map[[nf.KeyLen]byte]bool{}
	for i, k := range tr.FlowKeys {
		if seen[k] {
			t.Fatalf("flow %d: duplicate key", i)
		}
		seen[k] = true
		if k[12] != 6 {
			t.Fatalf("flow %d: proto %d, want TCP", i, k[12])
		}
		for j := 13; j < nf.KeyLen; j++ {
			if k[j] != 0 {
				t.Fatalf("flow %d: padding byte %d not zero", i, j)
			}
		}
	}
}

func TestPacketsCarryFlowKey(t *testing.T) {
	tr := Generate(Config{Flows: 16, Packets: 300, Seed: 2})
	for i := range tr.Packets {
		f := tr.FlowOf[i]
		want := tr.FlowKeys[f]
		if string(tr.Packets[i][:nf.KeyLen]) != string(want[:]) {
			t.Fatalf("packet %d key mismatch with flow %d", i, f)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	tr := Generate(Config{Flows: 1000, Packets: 50000, ZipfS: 1.3, Seed: 3})
	counts := map[int32]int{}
	for _, f := range tr.FlowOf {
		counts[f]++
	}
	// The most popular flow should dwarf the median.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < 5000 {
		t.Fatalf("zipf head only %d of 50000", max)
	}
	uni := Generate(Config{Flows: 1000, Packets: 50000, Seed: 3})
	ucounts := map[int32]int{}
	for _, f := range uni.FlowOf {
		ucounts[f]++
	}
	umax := 0
	for _, n := range ucounts {
		if n > umax {
			umax = n
		}
	}
	if umax > 200 {
		t.Fatalf("uniform head %d of 50000, too skewed", umax)
	}
}

func TestOpMixAlternates(t *testing.T) {
	tr := Generate(Config{Flows: 4, Packets: 100, Seed: 4})
	tr.ApplyOpMix([]uint32{7, 9}, []int{1, 1})
	for i := range tr.Packets {
		got := binary.LittleEndian.Uint32(tr.Packets[i][nf.OffOp:])
		want := uint32(7)
		if i%2 == 1 {
			want = 9
		}
		if got != want {
			t.Fatalf("packet %d op %d, want %d", i, got, want)
		}
	}
}

func TestOpMixWeights(t *testing.T) {
	tr := Generate(Config{Flows: 4, Packets: 90, Seed: 5})
	tr.ApplyOpMix([]uint32{1, 2}, []int{2, 1})
	count := map[uint32]int{}
	for i := range tr.Packets {
		count[binary.LittleEndian.Uint32(tr.Packets[i][nf.OffOp:])]++
	}
	if count[1] != 60 || count[2] != 30 {
		t.Fatalf("weighted mix: %v", count)
	}
}

func TestFieldSetters(t *testing.T) {
	var p Packet
	p.SetOp(0xAABB)
	p.SetArg(0xCCDD)
	p.SetTS(0x1122334455667788)
	if binary.LittleEndian.Uint32(p[nf.OffOp:]) != 0xAABB ||
		binary.LittleEndian.Uint32(p[nf.OffArg:]) != 0xCCDD ||
		binary.LittleEndian.Uint64(p[nf.OffTS:]) != 0x1122334455667788 {
		t.Fatal("field setters broken")
	}
	if len(p.Key()) != nf.KeyLen {
		t.Fatal("key slice wrong")
	}
}

func TestFlowHashDeterministicAndSpreads(t *testing.T) {
	tr := Generate(Config{Flows: 4096, Packets: 0, Seed: 6})
	buckets := make([]int, 8)
	for i, k := range tr.FlowKeys {
		if FlowHash(k[:]) != FlowHash(k[:]) {
			t.Fatalf("flow %d: hash not deterministic", i)
		}
		buckets[ShardOf(k[:], 8)]++
	}
	// RSS only needs rough balance; sequential flow keys must not all
	// collapse into a few shards.
	for s, n := range buckets {
		if n < 4096/8/2 || n > 4096/8*2 {
			t.Fatalf("shard %d got %d of 4096 flows, want near %d", s, n, 4096/8)
		}
	}
	if ShardOf(tr.FlowKeys[0][:], 1) != 0 || ShardOf(tr.FlowKeys[0][:], 0) != 0 {
		t.Fatal("degenerate shard counts must map to shard 0")
	}
}

func TestShardPartitionsByFlow(t *testing.T) {
	tr := Generate(Config{Flows: 64, Packets: 2000, ZipfS: 1.1, Seed: 7})
	tr.ApplyOpMix([]uint32{1, 2}, []int{1, 1})
	for _, n := range []int{1, 2, 3, 4} {
		shards := tr.Shard(n)
		if len(shards) != n {
			t.Fatalf("Shard(%d) returned %d traces", n, len(shards))
		}
		total := 0
		for s, sub := range shards {
			total += len(sub.Packets)
			if len(sub.Packets) != len(sub.FlowOf) {
				t.Fatalf("shard %d/%d: FlowOf misaligned", s, n)
			}
			if len(sub.FlowKeys) != len(tr.FlowKeys) {
				t.Fatalf("shard %d/%d: flow table truncated", s, n)
			}
			for i := range sub.Packets {
				if got := ShardOf(sub.Packets[i].Key(), n); got != s {
					t.Fatalf("shard %d/%d: packet %d hashes to shard %d", s, n, i, got)
				}
				f := sub.FlowOf[i]
				if string(sub.Packets[i][:nf.KeyLen]) != string(sub.FlowKeys[f][:]) {
					t.Fatalf("shard %d/%d: packet %d key mismatch with flow %d", s, n, i, f)
				}
			}
		}
		if total != len(tr.Packets) {
			t.Fatalf("Shard(%d) kept %d of %d packets", n, total, len(tr.Packets))
		}
	}
}

func TestShardPreservesOrderWithinFlow(t *testing.T) {
	tr := Generate(Config{Flows: 16, Packets: 800, Seed: 8})
	// Tag each packet with its global index so order is observable.
	for i := range tr.Packets {
		tr.Packets[i].SetTS(uint64(i))
	}
	for _, sub := range tr.Shard(4) {
		last := map[int32]uint64{}
		for i := range sub.Packets {
			ts := binary.LittleEndian.Uint64(sub.Packets[i][nf.OffTS:])
			f := sub.FlowOf[i]
			if prev, ok := last[f]; ok && ts <= prev {
				t.Fatalf("flow %d reordered: %d after %d", f, ts, prev)
			}
			last[f] = ts
		}
	}
}

func TestApplyArgKeysIsFlowDerived(t *testing.T) {
	tr := Generate(Config{Flows: 32, Packets: 500, ZipfS: 1.1, Seed: 9})
	tr.ApplyArgKeys(0)
	for i := range tr.Packets {
		want := FlowHash(tr.Packets[i].Key())
		if got := binary.LittleEndian.Uint32(tr.Packets[i][nf.OffArg:]); got != want {
			t.Fatalf("packet %d arg %#x, want flow hash %#x", i, got, want)
		}
	}
	tr.ApplyArgKeys(64)
	for i := range tr.Packets {
		if got := binary.LittleEndian.Uint32(tr.Packets[i][nf.OffArg:]); got >= 64 {
			t.Fatalf("packet %d arg %d outside bound 64", i, got)
		}
	}
}

// TestSrcPortWraps: the wrapping counter is 1024 + i%60000 for every i,
// past the wrap no pinned trace reaches.
func TestSrcPortWraps(t *testing.T) {
	var p srcPort
	for i := 0; i < 130000; i++ {
		if got, want := p.next(), uint16(1024+i%60000); got != want {
			t.Fatalf("flow %d: port %d, want %d", i, got, want)
		}
	}
}
