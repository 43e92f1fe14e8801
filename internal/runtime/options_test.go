package runtime

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"enetstl/internal/ebpf/vm"
)

func TestJSONRoundTrip(t *testing.T) {
	o := Options{
		Tier:   "jit",
		Shards: 4,
		PerCPU: true,
		Stats:  true,
		Trace:  &TraceOptions{Capacity: 4096, SampleRate: 0.5, Seed: 9},
		Guard:  &GuardOptions{Enabled: true, InsnBudget: 1000, WatchdogFactor: 16},
		Quota:  &Quota{InsnBudget: 500, MapBytes: 1 << 20, RPoolCap: 1 << 12},
	}
	data, err := o.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, back) {
		t.Fatalf("round trip diverged:\n  in  %+v\n  out %+v", o, back)
	}
	// The literal above sets every top-level field; a field added to
	// Options without a round-trip case fails here.
	if n := reflect.TypeOf(o).NumField(); n != 7 {
		t.Fatalf("Options has %d top-level fields, this test covers 7", n)
	}
	for i := 0; i < reflect.ValueOf(o).NumField(); i++ {
		if reflect.ValueOf(o).Field(i).IsZero() {
			t.Fatalf("round-trip literal leaves %s unset", reflect.TypeOf(o).Field(i).Name)
		}
	}
}

func TestFromJSONStrict(t *testing.T) {
	if _, err := FromJSON([]byte(`{"teir": "jit"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := FromJSON([]byte(`{"tier": "turbo"}`)); err == nil {
		t.Fatal("bad tier accepted")
	}
	// map_impl left the schema with the selectable flat core: naming it
	// is an error that says so, not a silently inherited default.
	_, err := FromJSON([]byte(`{"map_impl": "flat"}`))
	if err == nil || !strings.Contains(err.Error(), "map_impl") {
		t.Fatalf("removed field map_impl: err = %v, want an error naming it", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Options{
		{Tier: "turbo"},
		{Shards: -1},
		{Trace: &TraceOptions{SampleRate: 1.5}},
		{Trace: &TraceOptions{Capacity: -1}},
		{Guard: &GuardOptions{ResumeFrac: 2}},
		{Quota: &Quota{MapBytes: -1}},
		{Quota: &Quota{RPoolCap: -1}},
		{Shards: MaxShards + 1},
		{Trace: &TraceOptions{Capacity: MaxTraceCapacity + 1}},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options rejected: %v", err)
	}
	atCeilings := Options{Shards: MaxShards, Trace: &TraceOptions{Capacity: MaxTraceCapacity}}
	if err := atCeilings.Validate(); err != nil {
		t.Fatalf("options at their ceilings rejected: %v", err)
	}
}

func TestCanonPinsDefaults(t *testing.T) {
	c := Options{}.Canon()
	d := Defaults()
	if d.Tier == "" {
		t.Fatal("Defaults() leaves the tier unresolved")
	}
	if want := (Options{Tier: d.Tier, Shards: 1}); !reflect.DeepEqual(c, want) {
		t.Fatalf("Canon() = %+v, want %+v", c, want)
	}
	if !reflect.DeepEqual(d, Options{Tier: d.Tier}) {
		t.Fatalf("Defaults() = %+v sets more than the tier", d)
	}
	// Explicit values survive canonicalisation.
	if c := (Options{Tier: "wire", Shards: 4}).Canon(); c.Tier != "wire" || c.Shards != 4 {
		t.Fatalf("Canon() overwrote explicit fields: %+v", c)
	}
}

// TestCanonTierRoundTrips: Canon promises that two outputs are equal
// iff they construct identical instances, so every spelling of a tier
// that Validate accepts must canonicalise to the one name the resolved
// tier prints as. An alias ("fast" was one) breaks that: two requests
// build the same module and serve different options.
func TestCanonTierRoundTrips(t *testing.T) {
	accepted := 0
	for _, spelling := range []string{"", "wire", "predecoded", "jit", "fast", "Wire", "JIT", "interp"} {
		o := Options{Tier: spelling}
		tier, err := vm.ParseTier(o.Tier)
		if err != nil {
			if o.Validate() == nil {
				t.Errorf("tier %q: ParseTier refuses it (%v) but Validate accepts", spelling, err)
			}
			continue
		}
		accepted++
		if got := o.Canon().Tier; got != tier.String() {
			t.Errorf("tier %q resolves to %v but Canon() keeps %q", spelling, tier, got)
		}
	}
	if accepted != 4 {
		t.Errorf("%d spellings accepted, want the empty string and the three tier names", accepted)
	}
}

func TestGuardConfigQuotaForcesGuard(t *testing.T) {
	cfg, ok := Options{Quota: &Quota{InsnBudget: 777}}.GuardConfig()
	if !ok || !cfg.Enabled || cfg.InsnBudget != 777 {
		t.Fatalf("quota did not force guard: ok=%v cfg=%+v", ok, cfg)
	}
	if _, ok := (Options{}).GuardConfig(); ok {
		t.Fatal("zero Options claims a guard")
	}
	// Explicit guard options survive, tightened by the quota budget.
	cfg, ok = Options{
		Guard: &GuardOptions{Enabled: true, WatchdogFactor: 8},
		Quota: &Quota{InsnBudget: 99},
	}.GuardConfig()
	if !ok || cfg.WatchdogFactor != 8 || cfg.InsnBudget != 99 {
		t.Fatalf("guard+quota merge wrong: %+v", cfg)
	}
}

func TestQuotaCheck(t *testing.T) {
	var none *Quota
	if err := none.Check(1<<30, 1<<30); err != nil {
		t.Fatalf("nil quota refused: %v", err)
	}
	if err := (&Quota{}).Check(1<<30, 1<<30); err != nil {
		t.Fatalf("zero quota refused: %v", err)
	}
	q := &Quota{MapBytes: 100, RPoolCap: 10}
	if err := q.Check(100, 10); err != nil {
		t.Fatalf("at-limit usage refused: %v", err)
	}
	if err := q.Check(101, 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("map-bytes breach: err = %v, want ErrQuota", err)
	}
	if err := q.Check(0, 11); !errors.Is(err, ErrQuota) {
		t.Fatalf("rpool breach: err = %v, want ErrQuota", err)
	}
}
