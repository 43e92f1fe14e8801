// Adversarial traffic scenarios. Each generator produces a
// phase-structured trace: a benign substrate (same flow model as
// Generate) interleaved with attack windows carrying ground-truth
// per-packet labels, window metadata in arrival-tick terms, and a
// compressed virtual arrival clock inside the windows (bursts). The
// traces are seeded, Clone/Shard-safe (metadata travels with packets),
// and composable with the per-NF op mixes — PrepareTrace only touches
// op/arg/ts fields, never keys or metadata.
package pktgen

import (
	"fmt"
	"math/rand"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/nf"
)

// ScenarioKind selects an attack scenario family.
type ScenarioKind uint8

// The three scenario families.
const (
	// ScenarioSYNFlood models a spoofed-source DDoS burst: inside each
	// window most packets come from a large pool of near-unique sources,
	// pressuring conntrack/LRU insert paths at burst arrival rate.
	ScenarioSYNFlood ScenarioKind = iota + 1
	// ScenarioChurn models heavy-tail flow churn: flows are born and die
	// continuously, with the birth rate boosted inside windows — the
	// conntrack/timewheel working set never stabilizes.
	ScenarioChurn
	// ScenarioCollision models a hash-collision adversary: attack flows
	// are derived so their keys collide both in the RSS flow hash
	// (stacking one shard) and in the map slot hash (piling into one L1
	// bucket of the bucketed layout, so every insert past its 8 slots
	// takes the L2/L3/stash spill path instead of the wide fast path).
	ScenarioCollision
)

// Scenarios lists every scenario kind, in a stable order.
func Scenarios() []ScenarioKind {
	return []ScenarioKind{ScenarioSYNFlood, ScenarioChurn, ScenarioCollision}
}

func (k ScenarioKind) String() string {
	switch k {
	case ScenarioSYNFlood:
		return "syn-flood"
	case ScenarioChurn:
		return "churn"
	case ScenarioCollision:
		return "hash-collision"
	}
	return fmt.Sprintf("scenario(%d)", int(k))
}

// ScenarioFromString resolves a scenario name as used by CLI flags.
func ScenarioFromString(s string) (ScenarioKind, bool) {
	for _, k := range Scenarios() {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// AttackConfig shapes an adversarial trace. The zero value of every
// tuning field selects a sensible default; only Base and Kind are
// required.
type AttackConfig struct {
	// Base configures the benign substrate (flows, packets, skew, seed).
	Base Config
	// Kind selects the scenario family.
	Kind ScenarioKind

	// Windows is the number of attack windows (default 2), each holding
	// WindowFrac of the trace (default 0.2), evenly spaced.
	Windows    int
	WindowFrac float64
	// Intensity is the attack fraction of in-window packets (default 0.75).
	Intensity float64
	// Burst is the in-window arrival compression: that many packets
	// share one arrival tick (default 8), so a token bucket refilled per
	// tick sees an 8x rate spike without any wall-clock dependence.
	Burst int
	// AttackFlows sizes the adversarial flow pool: spoofed sources for
	// syn-flood (default 512), colliding keys for hash-collision
	// (default 192), the extra-flow budget for churn (default 512).
	AttackFlows int

	// ChurnBirth is the per-packet new-flow probability outside windows
	// (default 0.02); inside windows it is multiplied by ChurnBoost
	// (default 8). Each birth past ChurnActive live extra flows kills
	// the oldest one, so flow death tracks birth pressure; births past
	// the AttackFlows key budget resurrect the oldest dead flow.
	ChurnBirth float64
	ChurnBoost float64
	// ChurnActive caps the live extra-flow working set (default 256).
	ChurnActive int

	// CollisionBuckets is the power-of-two slot-hash modulus the
	// colliding keys target (default 1024): the bucketed map picks its
	// L1 bucket as SlotHash mod a power of two, so keys colliding mod B
	// share an L1 bucket in every table with at most B L1 buckets (and,
	// equivalently, a probe chain in any open-addressed table of at most
	// B slots). CollisionShards is the RSS modulus (default 4): all
	// attack flows land on one shard for any shard count dividing it.
	CollisionBuckets int
	CollisionShards  int
}

func (c AttackConfig) norm() AttackConfig {
	if c.Base.Flows <= 0 {
		c.Base.Flows = 256
	}
	if c.Windows <= 0 {
		c.Windows = 2
	}
	if c.WindowFrac <= 0 || c.WindowFrac > 0.5 {
		c.WindowFrac = 0.2
	}
	if c.Intensity <= 0 || c.Intensity > 1 {
		c.Intensity = 0.75
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	if c.AttackFlows <= 0 {
		switch c.Kind {
		case ScenarioCollision:
			c.AttackFlows = 192
		default:
			c.AttackFlows = 512
		}
	}
	if c.ChurnBirth <= 0 {
		c.ChurnBirth = 0.02
	}
	if c.ChurnBoost <= 0 {
		c.ChurnBoost = 8
	}
	if c.ChurnActive <= 0 {
		c.ChurnActive = 256
	}
	if c.CollisionBuckets <= 0 {
		c.CollisionBuckets = 1024
	}
	if c.CollisionShards <= 0 {
		c.CollisionShards = 4
	}
	return c
}

// Attack flows take their sources from ranges (11.x syn-flood, 12.x
// churn, 13.x hash-collision) disjoint from the benign 10.x flows;
// attack flow i has source base|i and the port putFlowKeys would give
// flow i.
const (
	synFloodSrc  = 0x0b000000
	churnSrc     = 0x0c000000
	collisionSrc = 0x0d000000
)

// appendCollideKeys appends n flow keys that collide both in the map
// slot hash (mod buckets) and in the RSS flow hash (mod shards), by
// brute force over the dst-address field — the adversary's
// precomputation, aimed at maps.SlotHash, the bucketed core's real
// placement function, not a stand-in. The targets are taken from key 0
// so the colliding set includes a concrete victim pattern rather than
// an arbitrary constant.
func appendCollideKeys(keys [][nf.KeyLen]byte, n, buckets, shards int) [][nf.KeyLen]byte {
	var port srcPort
	var first [nf.KeyLen]byte
	putKey(&first, collisionSrc, 0, 1024)
	slotTarget := maps.SlotHash(first[:]) % uint64(buckets)
	rssTarget := FlowHash(first[:]) % uint32(shards)
	var dst uint32
	for i := 0; i < n; i++ {
		keys = append(keys, [nf.KeyLen]byte{})
		k := &keys[len(keys)-1]
		for sport := port.next(); ; {
			putKey(k, collisionSrc|uint32(i), dst, sport)
			dst++
			if maps.SlotHash(k[:])%uint64(buckets) == slotTarget &&
				FlowHash(k[:])%uint32(shards) == rssTarget {
				break
			}
		}
	}
	return keys
}

// GenerateAttack builds an adversarial trace for cfg.Kind. The result
// carries per-packet ground-truth labels, the window list in
// arrival-tick terms, and a burst-compressed arrival clock. Like
// Generate's, its arrays come from the pool.
func GenerateAttack(cfg AttackConfig) *Trace {
	cfg = cfg.norm()
	rng := rand.New(rand.NewSource(cfg.Base.Seed ^ int64(cfg.Kind)<<32))
	a := arrayPool.Get().(*arrays)
	t := &Trace{
		Packets: sized(&a.packets, cfg.Base.Packets),
		// With room for the attack flows appended below: AttackFlows is
		// every scenario's key budget, so the appends never move it.
		FlowKeys: sized(&a.flowKeys, cfg.Base.Flows+cfg.AttackFlows)[:cfg.Base.Flows],
		FlowOf:   sized(&a.flowOf, cfg.Base.Packets),
		Labels:   sized(&a.labels, cfg.Base.Packets),
		Arrival:  sized(&a.arrival, cfg.Base.Packets),
		Scenario: cfg.Kind.String(),
		pooled:   a,
	}
	putFlowKeys(t.FlowKeys, rng)
	benign := a.flowDraw(cfg.Base, rng)

	// Attack flows follow the benign ones in FlowKeys. The floods prebuild
	// theirs, AttackFlows of them; churn appends one per birth, up to its
	// extra-flow budget.
	var port srcPort
	addFlow := func(src, dst uint32) int32 {
		f := len(t.FlowKeys)
		t.FlowKeys = append(t.FlowKeys, [nf.KeyLen]byte{})
		putKey(&t.FlowKeys[f], src, dst, port.next())
		return int32(f)
	}
	switch cfg.Kind {
	case ScenarioSYNFlood:
		for i := 0; i < cfg.AttackFlows; i++ {
			addFlow(synFloodSrc|uint32(i), uint32(rng.Int31()))
		}
	case ScenarioCollision:
		t.FlowKeys = appendCollideKeys(t.FlowKeys, cfg.AttackFlows, cfg.CollisionBuckets, cfg.CollisionShards)
	}

	// Window spans in packet-index space; tick ranges are recorded as
	// the windows are traversed.
	wlen := int(float64(cfg.Base.Packets) * cfg.WindowFrac)
	gap := (cfg.Base.Packets - cfg.Windows*wlen) / (cfg.Windows + 1)
	starts := make([]int, cfg.Windows)
	for w := range starts {
		starts[w] = gap + w*(wlen+gap)
	}

	var (
		tick     uint64
		win      = -1 // index of the window being traversed, -1 outside
		burstCnt int
		churnN   int     // churn flows born so far
		active   []int32 // churn: live extra flows, oldest first
		dead     []int32 // churn: dead extra flows, oldest first
	)
	for i := range t.Packets {
		// Window bookkeeping and the virtual arrival clock.
		inWin := false
		for w, s := range starts {
			if i >= s && i < s+wlen {
				inWin = true
				if win != w {
					win = w
					burstCnt = 0
					tick++
					t.Windows = append(t.Windows, Window{Start: tick, End: tick})
				}
				break
			}
		}
		if i > 0 {
			if !inWin {
				tick++
			} else if burstCnt%cfg.Burst == 0 && burstCnt > 0 {
				tick++
			}
		}
		if inWin {
			burstCnt++
			t.Windows[len(t.Windows)-1].End = tick + 1
		}
		t.Arrival[i] = tick

		// Flow choice.
		f := int32(-1)
		label := uint8(0)
		switch cfg.Kind {
		case ScenarioSYNFlood, ScenarioCollision:
			if inWin && rng.Float64() < cfg.Intensity {
				f = int32(cfg.Base.Flows + rng.Intn(cfg.AttackFlows))
				label = 1
			}
		case ScenarioChurn:
			birth := cfg.ChurnBirth
			if inWin {
				birth *= cfg.ChurnBoost
			}
			if rng.Float64() < birth {
				if churnN < cfg.AttackFlows {
					active = append(active, addFlow(churnSrc|uint32(churnN), uint32(rng.Int31())))
					churnN++
				} else if len(dead) > 0 {
					// Key budget exhausted: resurrect the oldest dead flow
					// (same key, so per-flow ground truth stays consistent).
					active = append(active, dead[0])
					dead = dead[:copy(dead, dead[1:])]
				}
				if len(active) > cfg.ChurnActive {
					dead = append(dead, active[0])
					active = active[:copy(active, active[1:])]
				}
			}
			// Churn traffic mixes the benign substrate with the live extra
			// flows; in-window packets are the labeled churn storm.
			if len(active) > 0 && rng.Float64() < 0.5 {
				f = active[rng.Intn(len(active))]
				if inWin {
					label = 1
				}
			}
		}
		if f < 0 {
			f = int32(benign.next())
		}
		t.FlowOf[i] = f
		t.Labels[i] = label
		t.Packets[i].setKey(&t.FlowKeys[f])
	}
	return t
}
