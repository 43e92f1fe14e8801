// Package guard is the runtime overload-protection plane: per-NF
// budgets enforced by a token-bucket load shedder with hysteresis, a
// per-packet cost watchdog, resource watermark probes, and degradation
// policies NFs opt into (head-sampling for sketches, aggressive LRU
// eviction for conntrack, ingress shedding for chains).
//
// Everything is deterministic by construction, so attack replays are
// reproducible bit-for-bit:
//
//   - the bucket refills from the trace's virtual arrival clock
//     (pktgen.Trace.Arrival), not the wall clock — a DDoS burst packs
//     packets onto shared ticks and the bucket drains at exactly the
//     same packets on every replay;
//   - per-packet cost is the VM's retired-instruction delta (identical
//     across runs; native NFs charge a fixed configured cost), so the
//     watchdog needs no timer;
//   - the same seed therefore produces the same shed set, per shard,
//     independent of other shards (each shard owns a private Guard).
//
// The disabled path follows the trace/telemetry gating idiom: one
// branch per packet, nothing else — pinned by TestGuardDisabledOverhead
// like the flight recorder's gate.
package guard

import (
	"fmt"
	"sync/atomic"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/telemetry"
)

// Action classifies what the guard did with one packet.
type Action uint8

// Per-packet guard outcomes.
const (
	// ActionAdmit: the packet reached the inner NF.
	ActionAdmit Action = iota
	// ActionShed: the token bucket was in shed state; the packet was
	// dropped at ingress with the configured shed verdict.
	ActionShed
	// ActionSample: a degradation policy head-sampled the packet out; it
	// passed through unprocessed.
	ActionSample
)

func (a Action) String() string {
	switch a {
	case ActionAdmit:
		return "admit"
	case ActionShed:
		return "shed"
	case ActionSample:
		return "sample"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Config shapes a Guard. The zero value of every field except Enabled
// selects a default; a zero Config is a disabled guard.
type Config struct {
	// Enabled turns the plane on. A disabled guard's wrapper costs one
	// branch per packet.
	Enabled bool

	// InsnBudget is the sustained budget in instruction units refilled
	// per arrival tick (one tick = one benign inter-arrival). Zero
	// defers to calibration: the first AutoBudget admitted packets set
	// InsnBudget = mean cost x Headroom.
	InsnBudget uint64
	// AutoBudget is the calibration prefix length in packets (default
	// 128, used only while InsnBudget is zero). No shedding happens
	// during calibration.
	AutoBudget int
	// Headroom multiplies the calibrated mean cost (default 2).
	Headroom float64
	// BurstTicks is the bucket capacity in ticks of budget (default 32).
	BurstTicks uint64
	// ResumeFrac is the hysteresis exit mark: shedding stops once the
	// bucket refills past ResumeFrac x capacity (default 0.5).
	ResumeFrac float64
	// NativeCost is the per-packet charge for instances with no VM to
	// meter (default 512).
	NativeCost uint64
	// ShedVerdict is returned for shed packets (default vm.XDPDrop —
	// never XDPAborted; shedding is graceful by contract).
	ShedVerdict uint64

	// WatchdogFactor sets the runaway-cost ceiling at WatchdogFactor x
	// InsnBudget per packet (default 8; 0 disables the watchdog).
	WatchdogFactor uint64
	// WatchdogTrips is how many consecutive over-ceiling packets engage
	// degraded mode (default 3).
	WatchdogTrips int
	// RecoverPackets is how many consecutive clean admitted packets
	// release degraded mode, watermarks permitting (default 256).
	RecoverPackets int
	// HeadSample admits 1 in HeadSample packets while degraded and
	// passes the rest unprocessed (default 0: policy off — NFs opt in).
	HeadSample int
	// WatermarkEvery is the watermark probe cadence in admitted packets
	// (default 64).
	WatermarkEvery int

	// CostFn overrides the measured per-packet cost (tests and NFs with
	// bespoke cost models); it sees the packet after processing.
	CostFn func(pkt []byte) uint64
}

func (c Config) norm() Config {
	if c.AutoBudget <= 0 {
		c.AutoBudget = 128
	}
	if c.Headroom <= 0 {
		c.Headroom = 2
	}
	if c.BurstTicks == 0 {
		c.BurstTicks = 32
	}
	if c.ResumeFrac <= 0 || c.ResumeFrac > 1 {
		c.ResumeFrac = 0.5
	}
	if c.NativeCost == 0 {
		c.NativeCost = 512
	}
	if c.ShedVerdict == 0 {
		c.ShedVerdict = uint64(vm.XDPDrop)
	}
	if c.WatchdogTrips <= 0 {
		c.WatchdogTrips = 3
	}
	if c.RecoverPackets <= 0 {
		c.RecoverPackets = 256
	}
	if c.WatermarkEvery <= 0 {
		c.WatermarkEvery = 64
	}
	return c
}

// Watermark is a named resource-pressure probe the guard polls every
// WatermarkEvery admitted packets: occupancy for capacity probes,
// per-packet event rate for rate probes, in [0, 1]. Pressure at or
// above High engages degraded mode; release requires every probe below
// Low (plus a clean watchdog streak) — the same hysteresis shape as the
// shedder.
type Watermark struct {
	Name string
	Frac func() float64
	High float64
	Low  float64
}

// Guard is one NF instance's overload protector. A Guard is
// single-replayer state (one per shard); only the counters are safe for
// concurrent readers (live /metrics scrapes).
type Guard struct {
	cfg   Config
	name  string
	shard int32

	budget   uint64 // insn units per tick; 0 until calibrated
	capacity int64
	resume   int64
	tokens   int64
	lastTick uint64
	haveTick bool

	shedding bool
	degraded bool
	wdStreak int
	clean    int
	pktIdx   uint64
	wmPhase  int // admitted packets mod WatermarkEvery; probes run at 0

	calN   int
	calSum uint64

	marks     []Watermark
	onDegrade []func(on bool)

	admitted   atomic.Uint64
	shedPkts   atomic.Uint64
	sampledOut atomic.Uint64
	wdTrips    atomic.Uint64
	shedEnters atomic.Uint64
	degrades   atomic.Uint64
}

// New builds a guard for the named NF on the given shard.
func New(name string, shard int, cfg Config) *Guard {
	g := &Guard{cfg: cfg.norm(), name: name, shard: int32(shard)}
	if g.cfg.InsnBudget > 0 {
		g.setBudget(g.cfg.InsnBudget)
	}
	return g
}

func (g *Guard) setBudget(b uint64) {
	if b == 0 {
		b = 1
	}
	g.budget = b
	g.capacity = int64(b * g.cfg.BurstTicks)
	g.resume = int64(float64(g.capacity) * g.cfg.ResumeFrac)
	g.tokens = g.capacity
}

// AddWatermark registers a pressure probe. Zero thresholds default to
// High 0.9 / Low 0.75.
func (g *Guard) AddWatermark(m Watermark) {
	if m.High <= 0 {
		m.High = 0.9
	}
	if m.Low <= 0 {
		m.Low = m.High * 5 / 6
	}
	g.marks = append(g.marks, m)
}

// OnDegrade registers a degradation hook, called with true when
// degraded mode engages and false when it releases — how NFs opt into
// their policy (conntrack batch-evicts, chains shed upstream stages).
func (g *Guard) OnDegrade(fn func(on bool)) { g.onDegrade = append(g.onDegrade, fn) }

// ProbeInterval returns the watermark probe cadence in packets, for
// callers building rate probes.
func (g *Guard) ProbeInterval() int { return g.cfg.WatermarkEvery }

// Budget returns the current per-tick instruction budget (0 while
// calibrating).
func (g *Guard) Budget() uint64 { return g.budget }

// Degraded reports whether a degradation policy is engaged.
func (g *Guard) Degraded() bool { return g.degraded }

// Admitted returns how many packets reached the inner NF.
func (g *Guard) Admitted() uint64 { return g.admitted.Load() }

// Shed returns how many packets the shedder rejected.
func (g *Guard) Shed() uint64 { return g.shedPkts.Load() }

// SampledOut returns how many packets degradation head-sampling passed
// through unprocessed.
func (g *Guard) SampledOut() uint64 { return g.sampledOut.Load() }

// WatchdogTrips returns how many packets exceeded the cost ceiling.
func (g *Guard) WatchdogTrips() uint64 { return g.wdTrips.Load() }

// ShedEnters returns how many times the shedder engaged.
func (g *Guard) ShedEnters() uint64 { return g.shedEnters.Load() }

// DegradeEnters returns how many times degraded mode engaged.
func (g *Guard) DegradeEnters() uint64 { return g.degrades.Load() }

// SetHeadSample sets the degraded-mode admission period after
// construction — how NFs wire their DegradeHeadSample opt-in into a
// guard built with a generic config.
func (g *Guard) SetHeadSample(n int) { g.cfg.HeadSample = n }

func (g *Guard) setShedding(on bool) {
	g.shedding = on
	if on {
		g.shedEnters.Add(1)
	}
}

func (g *Guard) setDegraded(on bool) {
	if g.degraded == on {
		return
	}
	g.degraded = on
	if on {
		g.degrades.Add(1)
	}
	for _, fn := range g.onDegrade {
		fn(on)
	}
	g.clean = 0
	g.wdStreak = 0
}

func (g *Guard) pressure(threshold func(Watermark) float64) bool {
	for _, m := range g.marks {
		if m.Frac() >= threshold(m) {
			return true
		}
	}
	return false
}

// Publish exports the guard's counters and state into reg, labeled by
// NF and shard. Per-shard counter series merge across shards by name.
func (g *Guard) Publish(reg *telemetry.Registry) {
	nfl := telemetry.L("nf", g.name)
	sh := telemetry.L("shard", fmt.Sprint(g.shard))
	reg.SetHelp("nf_guard_admitted_total", "packets the overload guard admitted to the NF")
	reg.SetHelp("nf_guard_shed_total", "packets the token-bucket shedder rejected at ingress")
	reg.SetHelp("nf_guard_degraded_total", "packets head-sampled out while a degradation policy was engaged")
	reg.SetHelp("nf_guard_watchdog_trips_total", "packets whose cost exceeded the watchdog ceiling")
	reg.SetHelp("nf_guard_shed_enters_total", "transitions into shed state")
	reg.SetHelp("nf_guard_degrade_enters_total", "transitions into degraded mode")
	reg.SetHelp("nf_guard_budget_insns", "per-tick instruction budget (0 while calibrating)")
	reg.Counter("nf_guard_admitted_total", nfl, sh).Add(g.Admitted())
	reg.Counter("nf_guard_shed_total", nfl, sh).Add(g.Shed())
	reg.Counter("nf_guard_degraded_total", nfl, sh).Add(g.SampledOut())
	reg.Counter("nf_guard_watchdog_trips_total", nfl, sh).Add(g.WatchdogTrips())
	reg.Counter("nf_guard_shed_enters_total", nfl, sh).Add(g.shedEnters.Load())
	reg.Counter("nf_guard_degrade_enters_total", nfl, sh).Add(g.degrades.Load())
	reg.Gauge("nf_guard_budget_insns", nfl, sh).Set(float64(g.budget))
}
