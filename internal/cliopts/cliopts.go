// Package cliopts binds nfrun's flag surface onto runtime.Options and
// runtime.TraceSpec. The flags round-trip through the same JSON schema
// the nfd daemon accepts: `-options '{"tier":"jit"}'` seeds the
// struct, explicit flags override individual fields, and
// -print-options emits the canonical JSON — so a flag invocation and a
// daemon request body are interchangeable descriptions of the same
// instance.
package cliopts

import (
	"flag"
	"fmt"

	"enetstl/internal/runtime"
)

// Runtime is the bound construction-flag set. Resolve with Options
// after flag parsing.
type Runtime struct {
	fs          *flag.FlagSet
	interp      *string
	shards      *int
	percpu      *bool
	stats       *bool
	optionsJSON *string
	print       *bool
}

// Bind registers the construction flags on fs: -interp, -shards,
// -percpu, -stats, -options and -print-options. An empty tier is the
// predecoded one.
func Bind(fs *flag.FlagSet) *Runtime {
	r := &Runtime{fs: fs}
	r.interp = fs.String("interp", "", "interpreter tier for VM flavours: wire | predecoded (default) | jit")
	r.shards = fs.Int("shards", 1, "RSS shards: hash-partition the trace by flow 5-tuple across N per-CPU instances replaying concurrently")
	r.percpu = fs.Bool("percpu", false, "back every shard (one, or -shards) with one per-CPU map (a private copy per shard, kernel per-CPU map semantics); refused for an NF without per-CPU wiring")
	r.stats = fs.Bool("stats", false, "enable runtime stats (bpf_stats analogue) and print metrics exposition")
	r.optionsJSON = fs.String("options", "", "runtime options as JSON (the nfd module schema); explicitly passed flags override its fields")
	r.print = fs.Bool("print-options", false, "print the canonical runtime-options JSON this invocation resolves to and exit")
	return r
}

// Options resolves the bound flags: the -options JSON (if any) is the
// base, then every explicitly passed flag overrides its field. Call
// after fs.Parse.
func (r *Runtime) Options() (runtime.Options, error) {
	var o runtime.Options
	if *r.optionsJSON != "" {
		var err error
		o, err = runtime.FromJSON([]byte(*r.optionsJSON))
		if err != nil {
			return runtime.Options{}, err
		}
	}
	r.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "interp":
			o.Tier = *r.interp
		case "shards":
			o.Shards = *r.shards
		case "percpu":
			o.PerCPU = *r.percpu
		case "stats":
			o.Stats = *r.stats
		}
	})
	// An unset -shards (and a JSON body without one) falls back to the
	// flag's default.
	if o.Shards == 0 {
		o.Shards = *r.shards
	}
	if err := o.Validate(); err != nil {
		return runtime.Options{}, err
	}
	return o, nil
}

// PrintRequested reports whether -print-options was passed.
func (r *Runtime) PrintRequested() bool { return *r.print }

// Print writes o's canonical self-contained JSON to stdout — the body
// a daemon create request would use to build the same instance.
func Print(o runtime.Options) error {
	b, err := o.Canon().JSON()
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// Trace is the bound trace-spec flag set.
type Trace struct {
	packets  *int
	flows    *int
	zipf     *float64
	seed     *int64
	scenario *string
}

// BindTrace registers the trace-generation flags on fs with the given
// defaults: -packets, -flows, -zipf, -seed, -scenario.
func BindTrace(fs *flag.FlagSet, packets, flows int, zipf float64) *Trace {
	t := &Trace{}
	t.packets = fs.Int("packets", packets, "trace length")
	t.flows = fs.Int("flows", flows, "distinct flows")
	t.zipf = fs.Float64("zipf", zipf, "zipf skew (0 = uniform)")
	t.seed = fs.Int64("seed", 1, "trace seed")
	t.scenario = fs.String("scenario", "", "adversarial scenario (syn-flood|churn|hash-collision): the trace is generated by that scenario instead of the benign generator")
	return t
}

// Spec returns the serializable trace spec the flags describe — the
// same schema POST /modules/{id}/packets accepts.
func (t *Trace) Spec() runtime.TraceSpec {
	return runtime.TraceSpec{
		Packets:  *t.packets,
		Flows:    *t.flows,
		Zipf:     *t.zipf,
		Seed:     *t.seed,
		Scenario: *t.scenario,
	}
}
