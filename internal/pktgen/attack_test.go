package pktgen

import (
	"testing"

	"enetstl/internal/ebpf/maps"
)

func attackCfg(kind ScenarioKind) AttackConfig {
	return AttackConfig{
		Base: Config{Flows: 192, Packets: 2000, ZipfS: 1.1, Seed: 7},
		Kind: kind,
	}
}

// TestAttackDeterministic: same config, same trace — bit for bit,
// metadata included.
func TestAttackDeterministic(t *testing.T) {
	for _, kind := range Scenarios() {
		a := GenerateAttack(attackCfg(kind))
		b := GenerateAttack(attackCfg(kind))
		if len(a.Packets) != len(b.Packets) || len(a.FlowKeys) != len(b.FlowKeys) {
			t.Fatalf("%v: shape diverged", kind)
		}
		for i := range a.Packets {
			if a.Packets[i] != b.Packets[i] || a.FlowOf[i] != b.FlowOf[i] ||
				a.Labels[i] != b.Labels[i] || a.Arrival[i] != b.Arrival[i] {
				t.Fatalf("%v: packet %d diverged across identical seeds", kind, i)
			}
		}
		if len(a.Windows) != len(b.Windows) {
			t.Fatalf("%v: window lists diverged", kind)
		}
	}
}

// TestAttackStructure sanity-checks every scenario's shape: attack
// packets exist, labels align with windows, the arrival clock is
// monotone and compressed inside windows, and ground truth (FlowOf vs
// packet key bytes) stays consistent.
func TestAttackStructure(t *testing.T) {
	for _, kind := range Scenarios() {
		tr := GenerateAttack(attackCfg(kind))
		if tr.Scenario != kind.String() {
			t.Errorf("%v: scenario name %q", kind, tr.Scenario)
		}
		if got := tr.AttackPackets(); got == 0 {
			t.Errorf("%v: no attack packets", kind)
		}
		if len(tr.Windows) != 2 {
			t.Errorf("%v: %d windows, want 2", kind, len(tr.Windows))
		}
		var prev uint64
		for i := range tr.Packets {
			if tr.Arrival[i] < prev {
				t.Fatalf("%v: arrival clock not monotone at %d", kind, i)
			}
			prev = tr.Arrival[i]
			if tr.Labels[i] == 1 && !tr.InWindow(tr.Arrival[i]) {
				t.Fatalf("%v: attack label outside every window at packet %d", kind, i)
			}
			f := tr.FlowOf[i]
			if [16]byte(tr.Packets[i][:16]) != tr.FlowKeys[f] {
				t.Fatalf("%v: packet %d key does not match FlowOf ground truth", kind, i)
			}
		}
		// Burst compression: the windows must pack more packets per tick
		// than the benign substrate's one.
		for _, w := range tr.Windows {
			inWin := 0
			for i := range tr.Packets {
				if w.Contains(tr.Arrival[i]) {
					inWin++
				}
			}
			ticks := w.End - w.Start
			if uint64(inWin) < 4*ticks {
				t.Errorf("%v: window [%d,%d) holds %d packets over %d ticks; want >=4x compression",
					kind, w.Start, w.End, inWin, ticks)
			}
		}
	}
}

// TestAttackCollision verifies the adversary's precomputation: every
// colliding key lands in one map-slot bucket chain and on one RSS
// shard, for the configured moduli and every power-of-two divisor.
func TestAttackCollision(t *testing.T) {
	tr := GenerateAttack(attackCfg(ScenarioCollision))
	var atk [][16]byte
	seen := map[int32]bool{}
	for i := range tr.Packets {
		if tr.Labels[i] == 1 && !seen[tr.FlowOf[i]] {
			seen[tr.FlowOf[i]] = true
			atk = append(atk, tr.FlowKeys[tr.FlowOf[i]])
		}
	}
	if len(atk) < 64 {
		t.Fatalf("only %d distinct attack flows labeled", len(atk))
	}
	slot := maps.SlotHash(atk[0][:]) % 1024
	for _, k := range atk {
		if maps.SlotHash(k[:])%1024 != slot {
			t.Fatalf("key does not collide in the 1024-slot hash")
		}
	}
	// Nested power-of-two moduli: colliding mod 1024 implies colliding in
	// any smaller power-of-two table (e.g. conntrack's 256 slots).
	for _, m := range []uint64{512, 256, 128} {
		for _, k := range atk {
			if maps.SlotHash(k[:])%m != slot%m {
				t.Fatalf("collision does not nest into %d-slot tables", m)
			}
		}
	}
	for _, shards := range []uint32{4, 2} {
		want := FlowHash(atk[0][:]) % shards
		for _, k := range atk {
			if FlowHash(k[:])%shards != want {
				t.Fatalf("key does not stack onto one of %d RSS shards", shards)
			}
		}
	}
}

// TestAttackCollisionSpills drives the adversary's colliding keys into
// a real bucketed map sized like conntrack's flow table and verifies
// the attack does what it claims: every key lands in one L1 bucket, so
// inserts past its 8 slots take the spill path through L2, L3, and the
// stash — and the map stays correct throughout (every key retrievable,
// deletes exact) even with the fast path fully defeated.
func TestAttackCollisionSpills(t *testing.T) {
	tr := GenerateAttack(attackCfg(ScenarioCollision))
	var atk [][16]byte
	seen := map[int32]bool{}
	for i := range tr.Packets {
		if tr.Labels[i] == 1 && !seen[tr.FlowOf[i]] {
			seen[tr.FlowOf[i]] = true
			atk = append(atk, tr.FlowKeys[tr.FlowOf[i]])
		}
	}
	if len(atk) < 100 {
		t.Fatalf("only %d distinct attack flows labeled", len(atk))
	}
	// conntrack's sizing: 128 entries -> 16 L1 buckets, so the mod-1024
	// collision set shares one L1 bucket.
	h, err := maps.NewBucketHash(16, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 8)
	n := min(len(atk), 128)
	for i := 0; i < n; i++ {
		if err := h.Update(atk[i][:], val); err != nil {
			t.Fatalf("insert %d of colliding set: %v", i, err)
		}
	}
	if h.SpillsL2 == 0 {
		t.Fatal("collision load never overflowed the target L1 bucket")
	}
	if h.SpillsL3 == 0 {
		t.Fatal("collision load never reached the L3 spill path")
	}
	t.Logf("spills under %d colliding inserts: L2=%d L3=%d stash=%d",
		n, h.SpillsL2, h.SpillsL3, h.SpillsStash)
	// Correctness under full spill: every inserted key resolves, and
	// interleaved deletes stay exact (no tombstone machinery to get
	// wrong — the probe set per key is fixed).
	for i := 0; i < n; i++ {
		if h.Lookup(atk[i][:]) == nil {
			t.Fatalf("key %d lost under collision load", i)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := h.Delete(atk[i][:]); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got := h.Lookup(atk[i][:]) != nil
		if want := i%2 == 1; got != want {
			t.Fatalf("key %d presence %v after alternating deletes, want %v", i, got, want)
		}
	}
}

// TestAttackShardRoundTrip is the metadata round-trip contract: labels,
// arrival ticks, and window membership survive RSS sharding (and
// Clone), packet for packet — so a sharded replay sees exactly the
// attack structure the unsharded one does.
func TestAttackShardRoundTrip(t *testing.T) {
	for _, kind := range Scenarios() {
		tr := GenerateAttack(attackCfg(kind))
		if c := tr.Clone(); c.Scenario != tr.Scenario || len(c.Labels) != len(tr.Labels) ||
			len(c.Arrival) != len(tr.Arrival) || len(c.Windows) != len(tr.Windows) {
			t.Fatalf("%v: Clone dropped metadata", kind)
		}
		for _, n := range []int{2, 4} {
			shards := tr.Shard(n)
			var total int
			for s, sh := range shards {
				if sh.Scenario != tr.Scenario || len(sh.Windows) != len(tr.Windows) {
					t.Fatalf("%v: shard %d/%d lost scenario/window metadata", kind, s, n)
				}
				if len(sh.Labels) != len(sh.Packets) || len(sh.Arrival) != len(sh.Packets) {
					t.Fatalf("%v: shard %d/%d metadata length mismatch", kind, s, n)
				}
				total += len(sh.Packets)
			}
			if total != len(tr.Packets) {
				t.Fatalf("%v: shards hold %d packets, trace %d", kind, total, len(tr.Packets))
			}
			// Per-packet round trip: walk the original in order, matching
			// each packet to the head of its shard's stream.
			idx := make([]int, n)
			for i := range tr.Packets {
				s := ShardOf(tr.Packets[i].Key(), n)
				sh := shards[s]
				j := idx[s]
				idx[s]++
				if sh.Packets[j] != tr.Packets[i] || sh.FlowOf[j] != tr.FlowOf[i] ||
					sh.Labels[j] != tr.Labels[i] || sh.Arrival[j] != tr.Arrival[i] {
					t.Fatalf("%v: packet %d did not round-trip through shard %d/%d", kind, i, s, n)
				}
				if tr.InWindow(tr.Arrival[i]) != sh.InWindow(sh.Arrival[j]) {
					t.Fatalf("%v: packet %d window membership changed across sharding", kind, i)
				}
			}
		}
		// Collision scenario: the adversary's flows must actually stack on
		// one shard of 4.
		if kind == ScenarioCollision {
			shards := tr.Shard(4)
			for s, sh := range shards {
				atk := 0
				for _, l := range sh.Labels {
					if l == 1 {
						atk++
					}
				}
				if atk > 0 && atk != tr.AttackPackets() {
					t.Fatalf("collision flows split across shards (shard %d has %d of %d)",
						s, atk, tr.AttackPackets())
				}
			}
		}
	}
}

// TestAttackComposesWithOpMix: applying an op mix touches only op/arg
// fields, never keys or scenario metadata.
func TestAttackComposesWithOpMix(t *testing.T) {
	tr := GenerateAttack(attackCfg(ScenarioSYNFlood))
	before := tr.Clone()
	tr.ApplyOpMix([]uint32{1, 2}, []int{1, 1})
	tr.ApplyArgKeys(64)
	for i := range tr.Packets {
		if [16]byte(tr.Packets[i][:16]) != [16]byte(before.Packets[i][:16]) {
			t.Fatalf("op mix mutated the flow key of packet %d", i)
		}
		if tr.Labels[i] != before.Labels[i] || tr.Arrival[i] != before.Arrival[i] {
			t.Fatalf("op mix mutated metadata of packet %d", i)
		}
	}
}

// Contains reports whether tick falls inside the window.
func (w Window) Contains(tick uint64) bool { return tick >= w.Start && tick < w.End }

// InWindow reports whether tick falls inside any attack window.
func (t *Trace) InWindow(tick uint64) bool {
	for _, w := range t.Windows {
		if w.Contains(tick) {
			return true
		}
	}
	return false
}

// AttackPackets counts labeled attack packets.
func (t *Trace) AttackPackets() int {
	n := 0
	for _, l := range t.Labels {
		if l != 0 {
			n++
		}
	}
	return n
}
