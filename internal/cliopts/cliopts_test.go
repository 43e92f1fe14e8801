package cliopts

import (
	"flag"
	"reflect"
	"testing"

	"enetstl/internal/runtime"
)

func parse(t *testing.T, args ...string) (*Runtime, *Trace) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	r := Bind(fs, 1, true)
	tr := BindTrace(fs, 1000, 64, 1.1)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return r, tr
}

func TestFlagsOverrideOptionsJSON(t *testing.T) {
	// Precedence: flag defaults < -options JSON < explicit flags.
	r, _ := parse(t,
		"-options", `{"tier": "wire", "percpu": true, "stats": true}`,
		"-interp", "jit")
	o, err := r.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.Tier != "jit" {
		t.Fatalf("explicit -interp lost to JSON: tier %q", o.Tier)
	}
	if !o.PerCPU || !o.Stats {
		t.Fatalf("JSON fields without explicit flags dropped: %+v", o)
	}
	if o.Shards != 1 {
		t.Fatalf("unset -shards did not fall back to the registered default: %d", o.Shards)
	}
}

func TestOptionsJSONAlone(t *testing.T) {
	r, _ := parse(t, "-options", `{"shards": 4, "percpu": true, "quota": {"insn_budget": 100}}`)
	o, err := r.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.Shards != 4 || !o.PerCPU || o.Quota == nil || o.Quota.InsnBudget != 100 {
		t.Fatalf("JSON body dropped fields: %+v", o)
	}
}

func TestBadOptionsRejected(t *testing.T) {
	r, _ := parse(t, "-options", `{"tier": "turbo"}`)
	if _, err := r.Options(); err == nil {
		t.Fatal("bad tier in -options accepted")
	}
	r, _ = parse(t, "-interp", "turbo")
	if _, err := r.Options(); err == nil {
		t.Fatal("bad -interp accepted")
	}
	// The schema is strict: a field it no longer has is an error, not
	// a silently ignored key.
	r, _ = parse(t, "-options", `{"map_impl": "flat"}`)
	if _, err := r.Options(); err == nil {
		t.Fatal("removed map_impl field accepted in -options")
	}
}

func TestTraceSpecRoundTrip(t *testing.T) {
	_, tr := parse(t, "-packets", "500", "-zipf", "0", "-scenario", "syn-flood", "-seed", "9")
	spec := tr.Spec()
	want := runtime.TraceSpec{Packets: 500, Flows: 64, Zipf: 0, Seed: 9, Scenario: "syn-flood"}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("Spec() = %+v, want %+v", spec, want)
	}
	if _, err := spec.Build(); err != nil {
		t.Fatal(err)
	}
}
