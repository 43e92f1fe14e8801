// Command nfrun runs a single network function in a chosen flavour over
// a synthetic trace and reports throughput — the quick way to poke at
// one NF outside the full benchmark harness.
//
// Usage:
//
//	nfrun -nf cmsketch -flavor enetstl -packets 100000 -flows 1024 -zipf 1.1
//
// -stats prints the replay's metrics exposition, -profile its time
// attribution, and -trace its flight recording as JSONL on stdout. A
// live view of NF instances while they run is the nfd daemon's
// (/metrics, /modules/{id}/trace, /profile, /debug/pprof).
//
// The conformance grid (every NF in every flavour, held to flavour and
// tier equivalence, fault schedules and attack scenarios) is a test, not
// a mode of this command: go test -run TestGrid ./internal/difftest/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"enetstl/internal/cliopts"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
	"enetstl/internal/trace"
)

func main() {
	var (
		name    = flag.String("nf", "cmsketch", "network function: skiplist cuckooswitch cmsketch nitrosketch cuckoofilter bloom vbf eiffel timewheel edf tss heavykeeper spacesaving daryhash conntrack")
		flavorS = flag.String("flavor", "enetstl", "kernel | ebpf | enetstl")
		trials  = flag.Int("trials", 3, "measurement trials")
		disasm  = flag.Bool("disasm", false, "print the NF's bytecode and exit (VM flavours)")
		profile = flag.Bool("profile", false, "replay the trace once and attribute execution time to helpers/kfuncs, then exit")
		guardOn = flag.Bool("guard", false, "front the instance with the overload-guard plane (token-bucket shedding, watchdog, degradation) during the replay; single shard only")

		doTrace     = flag.Bool("trace", false, "attach the flight recorder to the replay and dump its events as JSONL on stdout")
		traceCap    = flag.Int("trace-cap", 1<<16, "flight-recorder ring capacity (rounded up to a power of two)")
		traceSample = flag.Float64("trace-sample", 1.0, "head-sampling rate in [0,1]; 1 records every packet")
		traceSeed   = flag.Uint64("trace-seed", 1, "sampling seed (same seed + trace = same sampled packets)")
	)
	rt := cliopts.Bind(flag.CommandLine)
	tfl := cliopts.BindTrace(flag.CommandLine, 100000, 1024, 1.1)
	flag.Parse()

	ropts, err := rt.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *doTrace {
		ropts.Trace = &runtime.TraceOptions{Capacity: *traceCap, SampleRate: *traceSample, Seed: *traceSeed}
	}
	if *guardOn {
		ropts.Guard = nfcatalog.GuardPolicy()
	}
	if err := ropts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if rt.PrintRequested() {
		if err := cliopts.Print(ropts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ropts = ropts.Canon()

	flavor, err := nf.ParseFlavor(*flavorS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tr, err := tfl.Spec().Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if _, guarded := ropts.GuardConfig(); guarded {
		if ropts.Shards > 1 || ropts.PerCPU || *profile || *disasm {
			fmt.Fprintln(os.Stderr, "-guard supports the plain single-shard replay only")
			os.Exit(2)
		}
		dumpRecording(runGuarded(*name, flavor, tr, ropts))
		return
	}
	if *profile {
		runProfile(*name, flavor, tr, ropts)
		return
	}
	if ropts.Shards > 1 || ropts.PerCPU {
		runSharded(*name, flavor, tr, ropts, *trials)
		return
	}
	a := openOne(ropts, *name, flavor, tr)
	inst := a.Insts[0]
	if *disasm {
		v, ok := inst.(*nf.VMInstance)
		if !ok {
			fmt.Fprintf(os.Stderr, "-disasm: %s/%s is not a VM-backed instance\n", *name, *flavorS)
			os.Exit(2)
		}
		fmt.Printf("%s (%s): %d instructions\n", v.Name(), v.Flavor(), v.Prog.Len())
		fmt.Print(isa.Disassemble(v.Prog.Instructions()))
		return
	}
	res, err := harness.Throughput(inst, tr, *trials)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(res)
	lat, err := harness.Latency(inst, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(lat)

	publish := func(reg *telemetry.Registry) {
		if a.Stats != nil {
			a.Stats.Publish(reg)
		}
		labels := []telemetry.Label{
			telemetry.L("nf", inst.Name()),
			telemetry.L("flavor", inst.Flavor().String()),
		}
		reg.Gauge("nf_pps", labels...).Set(res.PPS)
		reg.Gauge("nf_ns_per_pkt", labels...).Set(res.NsPerOp)
		reg.SetHelp("nf_pps", "mean throughput, packets per second")
		reg.SetHelp("nf_ns_per_pkt", "mean per-packet processing time")
		lat.Publish(reg)
	}
	printStats(ropts.Stats, publish)
	dumpRecording(a.Rec)
}

// openOne builds the NF's one unsharded instance through
// nfcatalog.Open and attaches it (nfcatalog.Attach) — the build and
// attach steps the daemon runs. Counting and recording start here, so
// they cover the replay and not the programs NF constructors ran.
func openOne(o runtime.Options, name string, flavor nf.Flavor, tr *pktgen.Trace) nfcatalog.Attached {
	built, _, err := nfcatalog.Open(o, name, flavor, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return nfcatalog.Attach(o, name, built...)
}

// openShards builds the NF's shards through nfcatalog.Open — one, or
// o.Shards — and attaches each by its own call: the shards replay
// concurrently, so each gets a Stats of its own and, with o.Trace, a
// flight-recorder ring of its own (the per-CPU ringbuf idiom), sampled
// with trace.Config.ForShard's per-shard seed. The rings are attached
// before the replay, so they record its warm-up pass too. It returns
// the wiring, the instances to replay and their attachments.
func openShards(o runtime.Options, name string, flavor nf.Flavor, tr *pktgen.Trace) (*nfcatalog.Sharded, []nf.Instance, []nfcatalog.Attached) {
	built, sh, err := nfcatalog.Open(o, name, flavor, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	so := o
	so.Trace = nil
	insts := make([]nf.Instance, len(built))
	shards := make([]nfcatalog.Attached, len(built))
	for s, b := range built {
		shards[s] = nfcatalog.Attach(so, name, b)
		insts[s] = shards[s].Insts[0]
		if o.Trace != nil {
			shards[s].Rec = trace.NewRecorder(o.Trace.Config().ForShard(s))
			runtime.AttachRecorder(insts[s], shards[s].Rec)
		}
	}
	return sh, insts, shards
}

// runProfile replays the trace once through the NF's shards, each
// counted into a Stats of its own, and prints the attribution of the
// merged counts: callees, call counts, instructions and opcode mix do
// not depend on the shard count.
func runProfile(name string, flavor nf.Flavor, tr *pktgen.Trace, o runtime.Options) {
	o.Stats = true
	_, insts, shards := openShards(o, name, flavor, tr)
	if _, err := harness.ReplayShards(insts, tr.Shard(len(insts)), make([]uint64, len(insts)), 1, true); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, rep := range harness.Reports(mergedStats(shards), flavor.String()) {
		fmt.Print(rep)
	}
}

// mergedStats folds the shards' Stats into one; nil when stats are off.
// A native (Kernel-flavour) shard is counted too: Attach metered it
// into its Stats.
func mergedStats(shards []nfcatalog.Attached) *vm.Stats {
	if shards[0].Stats == nil {
		return nil
	}
	merged := vm.NewStats()
	for _, a := range shards {
		merged.Merge(a.Stats)
	}
	return merged
}

// printStats writes what publish publishes to stdout as metrics
// exposition text when -stats is on.
func printStats(on bool, publish func(*telemetry.Registry)) {
	if !on {
		return
	}
	reg := telemetry.NewRegistry()
	publish(reg)
	fmt.Println()
	if err := reg.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// dumpRecording ends a single-shard replay, plain or guarded: with
// -trace it dumps the flight recording as JSONL.
func dumpRecording(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "trace: %d events emitted, %d dropped, %d/%d packets sampled\n",
		rec.Emitted(), rec.Drops(), rec.SampledPackets(), rec.Packets())
	dumpEvents(rec.Drain(0))
}

// dumpEvents writes events as JSONL on stdout, the same shape nfd's
// /modules/{id}/trace serves.
func dumpEvents(evs []trace.Event) {
	enc := json.NewEncoder(os.Stdout)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runSharded replays the trace RSS-style: the NF's op mix is applied
// to the full trace, the trace is hash-partitioned by flow 5-tuple
// across the shards, and each shard replays on its own instance (own VM
// and maps) concurrently. Prints the merged result plus the per-shard
// breakdown. With o.Trace set, each shard gets its own flight-recorder
// ring and the timestamp-merged stream is dumped as JSONL on stdout.
func runSharded(name string, flavor nf.Flavor, tr *pktgen.Trace, o runtime.Options, trials int) {
	sh, insts, shards := openShards(o, name, flavor, tr)
	res, err := harness.ParallelRun(tr, insts, trials)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := mergedStats(shards)
	fmt.Println(res)
	fmt.Printf("merged verdicts: %s\n", res.Verdicts)
	for _, s := range res.PerShard {
		fmt.Printf("  shard %d: %6d packets %12.0f pps [%s]\n",
			s.Shard, s.Packets, s.PPS, s.Verdicts)
	}
	if p := sh.PerCPUTable(); p != nil {
		// Merge-on-read aggregation across the per-shard private copies:
		// the per-flow packet counters sum lane-wise into one view, the
		// way a control plane reads a kernel per-CPU map.
		var tracked uint64
		live := 0
		for f := range tr.FlowKeys {
			if pkts, ok := sh.FlowPackets(tr.FlowKeys[f][:]); ok {
				tracked += pkts
				live++
			}
		}
		fmt.Printf("percpu: %d private copies, %d flows live after merge, %d packets tracked, %d evictions\n",
			p.NumCPU(), live, tracked, p.Evictions())
	}
	if est, ok := sh.Estimate(tr.FlowKeys[0][:]); ok {
		// The control-plane estimator over every shard: summed per-shard
		// sketches, or one merge-on-read over the per-CPU copies.
		sent := 0
		for _, f := range tr.FlowOf {
			if f == 0 {
				sent++
			}
		}
		// The warm-up pass counts too.
		fmt.Printf("estimate: flow 0 %d packets (%d sent over %d passes)\n", est, sent*(res.Trials+1), res.Trials+1)
	}
	publish := func(reg *telemetry.Registry) {
		if st != nil {
			st.Publish(reg)
		}
		reg.Gauge("nf_pps",
			telemetry.L("nf", res.Name), telemetry.L("flavor", res.Flavor),
			telemetry.L("shards", fmt.Sprint(res.Shards))).Set(res.PPS)
	}
	if o.Trace != nil {
		var emitted, drops uint64
		chunks := make([][]trace.Event, len(shards))
		for s, a := range shards {
			chunks[s] = a.Rec.Drain(0)
			emitted += a.Rec.Emitted()
			drops += a.Rec.Drops()
		}
		fmt.Fprintf(os.Stderr, "trace: %d events emitted, %d dropped across %d shard rings\n",
			emitted, drops, len(shards))
		dumpEvents(trace.MergeByTime(chunks...))
	}
	printStats(o.Stats, publish)
}

// runGuarded replays the trace through a single guarded instance on the
// trace's arrival clock, so attack-window bursts hit the shedder the
// way back-to-back line-rate packets would, then reports the guard's
// accounting next to throughput. It returns the flight recorder, nil
// without -trace.
func runGuarded(name string, flavor nf.Flavor, tr *pktgen.Trace, o runtime.Options) *trace.Recorder {
	a := openOne(o, name, flavor, tr)
	inst, g := a.Insts[0], a.Guards[0]
	// ReplayBatch keeps the trace's arrival clock, so attack-window
	// bursts are visible to the token bucket.
	res, _, err := harness.ReplayBatch(inst, tr, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Duration(res.Ns)
	pps := float64(res.Packets) / elapsed.Seconds()
	fmt.Printf("%s/%s +guard: %d packets in %s, %.0f pps\n",
		inst.Name(), inst.Flavor(), res.Packets, elapsed.Round(time.Microsecond), pps)
	fmt.Printf("guard: budget=%d insns, admitted=%d shed=%d sampled-out=%d, shed-enters=%d watchdog-trips=%d degrade-enters=%d degraded=%v\n",
		g.Budget(), g.Admitted(), g.Shed(), g.SampledOut(),
		g.ShedEnters(), g.WatchdogTrips(), g.DegradeEnters(), g.Degraded())
	publish := func(reg *telemetry.Registry) {
		g.Publish(reg)
		if a.Stats != nil {
			a.Stats.Publish(reg)
		}
	}
	printStats(o.Stats, publish)
	return a.Rec
}
