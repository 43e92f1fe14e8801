// Package runtime defines the unified options-based configuration
// surface for NF instances. One serializable Options struct is what
// every builder resolves — the nfd daemon's JSON module API, the nfrun
// CLI, the benchmark harness — so a JSON request body and a CLI
// invocation describe bit-identically the same instance.
//
// Options configure the built instance, not the build: NF constructors
// take no options and read no global. The tier is pinned on the
// finished instance's VMs, stats/recorder/guard are attached to it
// (attach.go), and the construction-side quotas are measured on it
// (Maps, MapBytes, Quota.Check). Nothing here takes a lock or writes
// process state, and there is no process default to inherit: a fresh
// VM runs predecoded with no stats and no recorder until its builder
// says otherwise, so any number of instances can be configured
// concurrently.
package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/trace"
)

// ErrQuota reports a per-tenant resource quota breach found on a built
// instance (map memory, rpool capacity). The daemon maps it to HTTP 429.
var ErrQuota = errors.New("runtime: quota exceeded")

// Ceilings on what one request may ask for. The daemon caps a body at
// 16 MiB, but these four fields are sizes the server allocates on the
// client's word, so a 60-byte body could otherwise ask for gigabytes.
// They are constants, not settings: each sits well above what any
// caller in the tree uses (the benchmark's largest trace is 4096
// packets over 4096 flows), and MaxTracePackets above the ~184k raw
// packets a 16 MiB body can carry, so no legitimate request meets one.
// MaxTraceFlows is the tightest because a module's tables are preloaded
// from the whole flow table once per shard: an insert costs a hash and
// a bucket scan per flow and shard, and a cuckoo table past capacity
// pays one failed walk of 500 kicks per shard, then refuses the rest
// from their two candidate buckets.
const (
	MaxTraceFlows    = 1 << 14
	MaxTracePackets  = 1 << 18
	MaxShards        = 64 // every shard is a whole NF build
	MaxTraceCapacity = 1 << 18
)

// LimitError reports a request field above its ceiling. The daemon
// answers it with 400 and serves the fields alongside the message, so
// a client can tell which knob to turn without parsing prose.
type LimitError struct {
	Field    string // JSON path of the offending field
	Got, Max int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("runtime: %s %d exceeds the limit %d", e.Field, e.Got, e.Max)
}

func checkLimit(field string, got, max int) error {
	if got > max {
		return &LimitError{Field: field, Got: got, Max: max}
	}
	return nil
}

// Options is the per-instance runtime configuration. The zero value is
// an unsharded, predecoded instance with no stats, recorder, guard or
// quota; the JSON encoding is the schema the nfd daemon accepts and
// nfrun's -options flag round-trips.
type Options struct {
	// Tier selects the VM execution tier for VM-backed flavours:
	// "wire" | "predecoded" | "jit". Empty means predecoded.
	Tier string `json:"tier,omitempty"`
	// Shards is the RSS shard count (instances replaying concurrently
	// over a flow-hash-partitioned stream). 0 and 1 both mean unsharded.
	Shards int `json:"shards,omitempty"`
	// PerCPU backs sharded instances with one shared per-CPU map
	// (private per-shard copies) where the NF has per-CPU wiring.
	PerCPU bool `json:"percpu,omitempty"`
	// Stats enables per-instance VM statistics (the bpf_stats
	// analogue), one Stats shared by the instance's VMs.
	Stats bool `json:"stats,omitempty"`
	// Trace attaches a flight recorder with this configuration.
	Trace *TraceOptions `json:"trace,omitempty"`
	// Guard fronts the instance with the overload-guard plane.
	Guard *GuardOptions `json:"guard,omitempty"`
	// Quota sets per-tenant resource ceilings, enforced via the guard
	// plane (insn budget) and on the built instance (map memory, rpool).
	Quota *Quota `json:"quota,omitempty"`
}

// TraceOptions configures the per-instance flight recorder.
type TraceOptions struct {
	// Capacity is the ring size (rounded up to a power of two).
	Capacity int `json:"capacity,omitempty"`
	// SampleRate is the head-sampling rate in [0,1]; 0 defaults to 1.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// Seed drives the deterministic sampling decision.
	Seed uint64 `json:"seed,omitempty"`
}

// Config converts to the trace package's configuration.
func (t *TraceOptions) Config() trace.Config {
	cfg := trace.Config{Capacity: t.Capacity, SampleRate: t.SampleRate, Seed: t.Seed}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 1
	}
	return cfg
}

// GuardOptions is the serializable face of guard.Config (the CostFn
// hook is code, not configuration, and stays out).
type GuardOptions struct {
	Enabled        bool    `json:"enabled,omitempty"`
	InsnBudget     uint64  `json:"insn_budget,omitempty"`
	AutoBudget     int     `json:"auto_budget,omitempty"`
	Headroom       float64 `json:"headroom,omitempty"`
	BurstTicks     uint64  `json:"burst_ticks,omitempty"`
	ResumeFrac     float64 `json:"resume_frac,omitempty"`
	NativeCost     uint64  `json:"native_cost,omitempty"`
	ShedVerdict    uint64  `json:"shed_verdict,omitempty"`
	WatchdogFactor uint64  `json:"watchdog_factor,omitempty"`
	WatchdogTrips  int     `json:"watchdog_trips,omitempty"`
	RecoverPackets int     `json:"recover_packets,omitempty"`
	WatermarkEvery int     `json:"watermark_every,omitempty"`
}

// Config converts to the guard package's configuration.
func (g *GuardOptions) Config() guard.Config {
	return guard.Config{
		Enabled:        g.Enabled,
		InsnBudget:     g.InsnBudget,
		AutoBudget:     g.AutoBudget,
		Headroom:       g.Headroom,
		BurstTicks:     g.BurstTicks,
		ResumeFrac:     g.ResumeFrac,
		NativeCost:     g.NativeCost,
		ShedVerdict:    g.ShedVerdict,
		WatchdogFactor: g.WatchdogFactor,
		WatchdogTrips:  g.WatchdogTrips,
		RecoverPackets: g.RecoverPackets,
		WatermarkEvery: g.WatermarkEvery,
	}
}

// Quota sets per-tenant resource ceilings. Zero fields are unlimited.
type Quota struct {
	// InsnBudget caps sustained datapath spend: it becomes a fixed
	// token-bucket budget (instructions per arrival tick) on the
	// instance's guard. Excess packets are shed, never queued.
	InsnBudget uint64 `json:"insn_budget,omitempty"`
	// MapBytes caps the summed footprint of every map the instance
	// holds (MapBytes); a breach refuses the instance with ErrQuota.
	MapBytes int `json:"map_bytes,omitempty"`
	// RPoolCap caps the capacity of any single random pool the instance
	// draws from; a breach refuses the instance with ErrQuota.
	RPoolCap int `json:"rpool_cap,omitempty"`
}

// Check holds the construction-side ceilings against what a build
// produced: mapBytes is the summed footprint of the instance's maps
// (MapBytes), poolCap the capacity of the largest random pool it draws
// (0 for none). A nil quota and zero fields are unlimited; a breach is
// an ErrQuota.
func (q *Quota) Check(mapBytes, poolCap int) error {
	if q == nil {
		return nil
	}
	if q.MapBytes > 0 && mapBytes > q.MapBytes {
		return fmt.Errorf("%w: maps use %d bytes, quota %d", ErrQuota, mapBytes, q.MapBytes)
	}
	if q.RPoolCap > 0 && poolCap > q.RPoolCap {
		return fmt.Errorf("%w: random pool of %d entries, quota %d", ErrQuota, poolCap, q.RPoolCap)
	}
	return nil
}

// GuardConfig resolves the guard configuration the instance should run
// behind: the explicit Guard options, tightened by the insn-budget
// quota (a quota forces the guard on with a fixed, non-calibrating
// budget). ok is false when no guard is requested at all.
func (o Options) GuardConfig() (cfg guard.Config, ok bool) {
	if o.Guard != nil {
		cfg = o.Guard.Config()
		ok = cfg.Enabled
	}
	if o.Quota != nil && o.Quota.InsnBudget > 0 {
		cfg.Enabled = true
		cfg.InsnBudget = o.Quota.InsnBudget
		ok = true
	}
	return cfg, ok
}

// Validate checks every field.
func (o Options) Validate() error {
	if _, err := vm.ParseTier(o.Tier); err != nil {
		return err
	}
	if o.Shards < 0 {
		return fmt.Errorf("runtime: negative shards %d", o.Shards)
	}
	if err := checkLimit("options.shards", o.Shards, MaxShards); err != nil {
		return err
	}
	if t := o.Trace; t != nil {
		if t.SampleRate < 0 || t.SampleRate > 1 {
			return fmt.Errorf("runtime: trace sample_rate %v outside [0,1]", t.SampleRate)
		}
		if t.Capacity < 0 {
			return fmt.Errorf("runtime: negative trace capacity %d", t.Capacity)
		}
		if err := checkLimit("options.trace.capacity", t.Capacity, MaxTraceCapacity); err != nil {
			return err
		}
	}
	if g := o.Guard; g != nil && (g.ResumeFrac < 0 || g.ResumeFrac > 1) {
		return fmt.Errorf("runtime: guard resume_frac %v outside [0,1]", g.ResumeFrac)
	}
	if q := o.Quota; q != nil && (q.MapBytes < 0 || q.RPoolCap < 0) {
		return fmt.Errorf("runtime: negative quota")
	}
	return nil
}

// Defaults returns the Options a zero struct resolves to: the
// predecoded tier spelled out.
func Defaults() Options {
	return Options{Tier: vm.TierPredecoded.String()}
}

// Canon returns o with empty fields that have a spelled-out value
// pinned to it, so the JSON form is self-contained: two Canon outputs
// are equal iff they construct identical instances.
func (o Options) Canon() Options {
	if o.Tier == "" {
		o.Tier = Defaults().Tier
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	return o
}

// JSON renders the canonical schema the daemon accepts.
func (o Options) JSON() ([]byte, error) {
	return json.MarshalIndent(o, "", "  ")
}

// FromJSON decodes Options strictly: unknown fields are an error, so a
// typo in a module-create request fails loudly instead of silently
// leaving a field at its zero value.
func FromJSON(data []byte) (Options, error) {
	var o Options
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return Options{}, fmt.Errorf("runtime: bad options JSON: %w", err)
	}
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}
