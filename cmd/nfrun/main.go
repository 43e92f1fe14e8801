// Command nfrun runs a single network function in a chosen flavour over
// a synthetic trace and reports throughput — the quick way to poke at
// one NF outside the full benchmark harness.
//
// Usage:
//
//	nfrun -nf cmsketch -flavor enetstl -packets 100000 -flows 1024 -zipf 1.1
//
// With -serve it also mounts the observability plane (/metrics, /trace,
// /profile, /debug/pprof) for the duration of the replay; the replay's
// VM counters and /profile reports are published when it ends:
//
//	nfrun -nf cuckooswitch -flavor ebpf -serve :8080 -trace -hold
//
// The conformance grid (every NF in every flavour, held to flavour and
// tier equivalence, fault schedules and attack scenarios) is a test, not
// a mode of this command: go test -run TestGrid ./internal/difftest/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"enetstl/internal/cliopts"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/obs"
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

		serve       = flag.String("serve", "", "serve the observability plane (/metrics /trace /profile /debug/pprof) on this address during the replay; implies -stats")
		doTrace     = flag.Bool("trace", false, "attach the flight recorder to the replay; events go to /trace when -serve is set, else dumped as JSONL on stdout")
		traceCap    = flag.Int("trace-cap", 1<<16, "flight-recorder ring capacity (rounded up to a power of two)")
		traceSample = flag.Float64("trace-sample", 1.0, "head-sampling rate in [0,1]; 1 records every packet")
		traceSeed   = flag.Uint64("trace-seed", 1, "sampling seed (same seed + trace = same sampled packets)")
		hold        = flag.Bool("hold", false, "with -serve: keep serving after the replay until SIGINT/SIGTERM")
		smoke       = flag.Bool("smoke", false, "with -serve: self-scrape every endpoint after the replay and exit non-zero on failure")
	)
	rt := cliopts.Bind(flag.CommandLine)
	tfl := cliopts.BindTrace(flag.CommandLine, 100000, 1024, 1.1)
	flag.Parse()

	ropts, err := rt.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *serve != "" {
		// -serve publishes the replay's VM counters: /metrics carries
		// them and /profile reports from them.
		ropts.Stats = true
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
	stats := ropts.Stats

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

	var srv *obs.Server
	var base string
	if *serve != "" {
		srv = obs.New()
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		base = "http://" + addr
		fmt.Fprintf(os.Stderr, "obs: serving /metrics /trace /profile /debug/pprof on %s\n", base)
	}

	if _, guarded := ropts.GuardConfig(); guarded {
		if ropts.Shards > 1 || ropts.PerCPU || *profile || *disasm {
			fmt.Fprintln(os.Stderr, "-guard supports the plain single-shard replay only")
			os.Exit(2)
		}
		a := runGuarded(*name, flavor, tr, ropts, srv)
		dumpRecording(a.Rec, srv)
		finishServe(srv, base, *smoke, *hold, a.Stats)
		return
	}
	if *profile {
		runProfile(*name, flavor, tr, ropts)
		return
	}
	if ropts.Shards > 1 || ropts.PerCPU {
		st := runSharded(*name, flavor, tr, ropts, *trials, srv)
		finishServe(srv, base, *smoke, *hold, st)
		return
	}
	a := openOne(ropts, *name, flavor, tr, srv)
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
	if srv != nil {
		// Live instrumentation: per-packet latency and verdict counters
		// land in the server's registry while the replay runs.
		inst = obs.Instrument(inst, srv.Registry())
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
	serveStats(srv, publish, a.Stats, flavor.String())
	printStats(stats, publish)
	dumpRecording(a.Rec, srv)
	finishServe(srv, base, *smoke, *hold, a.Stats)
}

// openOne builds the NF's one unsharded instance through
// nfcatalog.Open and attaches it (nfcatalog.Attach) — the build and
// attach steps the daemon runs — handing its recorder to the server, if
// any. Counting and recording start here, so they cover the replay and
// not the programs NF constructors ran.
func openOne(o runtime.Options, name string, flavor nf.Flavor, tr *pktgen.Trace, srv *obs.Server) nfcatalog.Attached {
	built, _, err := nfcatalog.Open(o, name, flavor, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	a := nfcatalog.Attach(o, name, built...)
	if srv != nil && a.Rec != nil {
		srv.SetRecorder(a.Rec)
	}
	return a
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

// serveStats publishes a finished replay into the server's static
// registry exactly once — its VM counters (st, through publish) among
// the rest — and registers st as the /profile source, its reports
// labelled with the flavour. It runs after the replay because vm.Stats
// is not safe to read while a run mutates it. No-op when -serve is off.
func serveStats(srv *obs.Server, publish func(*telemetry.Registry), st *vm.Stats, flavor string) {
	if srv == nil {
		return
	}
	publish(srv.Registry())
	if st != nil {
		srv.SetProfile(func() []*harness.ProfileReport { return harness.Reports(st, flavor) })
	}
}

// printStats writes what publish publishes to stdout as metrics
// exposition text when -stats (or -serve) is on.
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

// dumpRecording ends a single-shard replay, plain or guarded: -trace
// without -serve dumps the flight recording as JSONL (with -serve,
// /trace serves it instead).
func dumpRecording(rec *trace.Recorder, srv *obs.Server) {
	if rec == nil || srv != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "trace: %d events emitted, %d dropped, %d/%d packets sampled\n",
		rec.Emitted(), rec.Drops(), rec.SampledPackets(), rec.Packets())
	dumpEvents(rec.Drain(0))
}

// dumpEvents writes events as JSONL on stdout, the same shape /trace
// serves.
func dumpEvents(evs []trace.Event) {
	enc := json.NewEncoder(os.Stdout)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// finishServe runs the post-replay server phases: the -smoke self-scrape
// and the -hold wait. st is the Stats nfrun attached (merged across
// shards), which /metrics must carry exactly once. No-op when -serve is
// off.
func finishServe(srv *obs.Server, base string, smoke, hold bool, st *vm.Stats) {
	if srv == nil {
		return
	}
	defer srv.Close()
	if smoke {
		if err := smokeCheck(base, st); err != nil {
			fmt.Fprintln(os.Stderr, "obs smoke:", err)
			os.Exit(1)
		}
		fmt.Println("obs smoke: / /metrics /trace /profile /debug/pprof OK")
	}
	if hold {
		fmt.Fprintf(os.Stderr, "obs: replay done, holding %s (SIGINT to exit)\n", base)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// smokeCheck self-scrapes every observability endpoint and validates the
// payload shapes — the CI gate behind `make obs-smoke` — and that the
// scraped vm_run_cnt series sum to st's run count.
func smokeCheck(base string, st *vm.Stats) error {
	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), nil
	}
	index, err := get("/")
	if err != nil {
		return err
	}
	if !strings.Contains(index, "/metrics") {
		return fmt.Errorf("/: index does not link /metrics")
	}
	metrics, err := get("/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{"vm_run_cnt", "nf_latency_ns_bucket", "nf_pps"} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing family %q", want)
		}
	}
	var scraped, attached float64
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "vm_run_cnt{") || strings.HasPrefix(line, "vm_run_cnt ") {
			f := strings.Fields(line)
			n, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return fmt.Errorf("/metrics: bad sample %q: %w", line, err)
			}
			scraped += n
		}
	}
	if st != nil {
		for _, name := range st.ProgNames() {
			ps, _ := st.ProgSnapshot(name)
			attached += float64(ps.RunCnt)
		}
	}
	if scraped != attached {
		return fmt.Errorf("/metrics vm_run_cnt sums to %.0f, the attached stats counted %.0f", scraped, attached)
	}
	traceBody, err := get("/trace?kind=verdict&limit=5")
	if err != nil {
		return err
	}
	verdicts := 0
	for _, line := range strings.Split(strings.TrimSpace(traceBody), "\n") {
		if line == "" {
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("/trace: bad JSONL %q: %w", line, err)
		}
		if ev.Kind != trace.KindVerdict {
			return fmt.Errorf("/trace: kind filter leaked a %s event", ev.Kind)
		}
		verdicts++
	}
	if verdicts == 0 {
		return fmt.Errorf("/trace returned no verdict events")
	}
	profBody, err := get("/profile")
	if err != nil {
		return err
	}
	var reports []harness.ProfileReport
	if err := json.Unmarshal([]byte(profBody), &reports); err != nil {
		return fmt.Errorf("/profile: bad JSON: %w", err)
	}
	if len(reports) == 0 {
		return fmt.Errorf("/profile returned no reports")
	}
	if _, err := get("/debug/pprof/cmdline"); err != nil {
		return err
	}
	return nil
}

// runSharded replays the trace RSS-style: the NF's op mix is applied
// to the full trace, the trace is hash-partitioned by flow 5-tuple
// across the shards, and each shard replays on its own instance (own VM
// and maps) concurrently. Prints the merged result plus the per-shard
// breakdown, and returns the merged stats (nil when off). With o.Trace
// set, each shard gets its own flight-recorder ring and the
// timestamp-merged stream goes to the obs server's /trace (or stdout as
// JSONL when not serving).
func runSharded(name string, flavor nf.Flavor, tr *pktgen.Trace, o runtime.Options, trials int, srv *obs.Server) *vm.Stats {
	sh, insts, shards := openShards(o, name, flavor, tr)
	if srv != nil {
		for s := range insts {
			insts[s] = obs.Instrument(insts[s], srv.Registry())
		}
	}
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
	serveStats(srv, publish, st, res.Flavor)
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
		if events := trace.MergeByTime(chunks...); srv != nil {
			srv.AddEvents(events)
		} else {
			dumpEvents(events)
		}
	}
	printStats(o.Stats, publish)
	return st
}

// runGuarded replays the trace through a single guarded instance on the
// trace's arrival clock, so attack-window bursts hit the shedder the
// way back-to-back line-rate packets would, then reports the guard's
// accounting next to throughput.
func runGuarded(name string, flavor nf.Flavor, tr *pktgen.Trace, o runtime.Options, srv *obs.Server) nfcatalog.Attached {
	a := openOne(o, name, flavor, tr, srv)
	inst, g := a.Insts[0], a.Guards[0]
	// ReplayBatch keeps the trace's arrival clock, so attack-window
	// bursts are visible to the token bucket; obs.Instrument would
	// flatten the replay back onto the one-tick-per-packet clock.
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
	serveStats(srv, publish, a.Stats, flavor.String())
	printStats(o.Stats, publish)
	return a
}
