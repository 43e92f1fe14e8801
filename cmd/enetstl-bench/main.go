// Command enetstl-bench regenerates the paper's evaluation artifacts:
// every table and figure of §6 (see DESIGN.md for the experiment
// index). With no flags it runs everything in paper order.
//
// Usage:
//
//	enetstl-bench [-experiment fig3e] [-packets 20000] [-trials 3] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"enetstl/internal/cliopts"
	"enetstl/internal/difftest"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/experiments"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/obs"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
)

func main() {
	var (
		id      = flag.String("experiment", "all", "experiment ID (table1, fig1, table2, fig3a..fig3x, fig4..fig7) or 'all'")
		packets = flag.Int("packets", 20000, "packets per throughput measurement")
		trials  = flag.Int("trials", 3, "trials per measurement")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		faults  = flag.Bool("faults", false, "run the chaos fault-injection suite over the full NF catalog instead of the paper experiments")
		attack  = flag.Bool("attack", false, "run the adversarial scenario grid (guard off vs on) over the full NF catalog instead of the paper experiments")
		serve   = flag.String("serve", "", "serve the observability plane (/metrics /profile /debug/pprof) on this address while the experiments run; implies live VM stats")
	)
	rt := cliopts.Bind(flag.CommandLine, 4, false)
	flag.Parse()

	ropts, err := rt.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *serve != "" {
		// Live VM counters feed the /metrics and /profile scrapes while
		// the long experiment sweep runs.
		ropts.Stats = true
	}
	if rt.PrintRequested() {
		if err := cliopts.Print(ropts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ropts = ropts.Canon()
	// Install before any experiment builds an NF: a fresh VM starts on
	// the process default tier, and stats (the sysctl
	// kernel.bpf_stats_enabled analogue) must flip before build so every
	// VM the experiments create collects counters.
	if err := runtime.Install(ropts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stats, shards := ropts.Stats, ropts.Shards

	if *serve != "" {
		srv := obs.New()
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving /metrics /profile /debug/pprof on http://%s\n", addr)
	}

	if *faults {
		runFaults(*packets, stats)
		return
	}
	if *attack {
		runAttack(*packets, stats)
		return
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Desc)
		}
		return
	}

	opts := experiments.Options{Packets: *packets, Trials: *trials, Shards: shards}
	run := func(r experiments.Runner) {
		start := time.Now()
		t, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		fmt.Printf("(%s took %.1fs)\n\n", r.ID, time.Since(start).Seconds())
	}

	if *id == "all" {
		for _, r := range experiments.All() {
			run(r)
		}
		dumpStats(stats)
		return
	}
	r, ok := experiments.ByID(*id)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *id)
		os.Exit(2)
	}
	run(r)
	dumpStats(stats)
}

// dumpStats prints the merged VM counters of the whole run as metrics
// exposition text.
func dumpStats(enabled bool) {
	if !enabled {
		return
	}
	reg := telemetry.NewRegistry()
	vm.CollectStats().Publish(reg)
	if err := reg.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runAttack replays the full NF catalog under each adversarial scenario
// separately, guard off and guard on, and prints the overload table:
// what the guarded arms admitted, shed, and sampled out, how often they
// degraded, and how many resilience-contract violations escaped (the
// paper-quality answer is zero). Exits non-zero on any violation.
func runAttack(packets int, stats bool) {
	fmt.Println("attack resilience: full NF catalog, guard off vs on, one row per scenario")
	fmt.Printf("%-16s %6s %10s %10s %10s %10s %10s %11s\n",
		"scenario", "cases", "packets", "admitted", "shed", "sampled", "degrades", "violations")
	var cfgs []nfcatalog.GridConfig
	for _, kind := range pktgen.Scenarios() {
		cfgs = append(cfgs, nfcatalog.GridConfig{Packets: packets, Flows: 192,
			Scenarios: []pktgen.ScenarioKind{kind}})
	}
	runGridTable(difftest.AxisAttack, cfgs, stats, func(cfg nfcatalog.GridConfig, rep *difftest.Report) {
		var admitted, shed, sampled, degrades uint64
		for _, row := range rep.Rows {
			if row.GuardOn {
				admitted += row.Admitted
				shed += row.Shed
				sampled += row.Sampled
				degrades += row.Degrades
			}
		}
		fmt.Printf("%-16s %6d %10d %10d %10d %10d %10d %11d\n",
			cfg.Scenarios[0], rep.Cases, rep.Packets, admitted, shed, sampled, degrades, rep.Total)
	})
}

// runFaults replays the full NF catalog (plus the composed apps) under
// each fault schedule separately and prints the robustness table: how
// many faults each schedule injected and how many contract violations
// escaped (the paper-quality answer is zero). Exits non-zero on any
// violation.
func runFaults(packets int, stats bool) {
	fmt.Println("chaos robustness: full NF catalog + apps, one row per fault schedule")
	fmt.Printf("%-12s %10s %12s %12s %12s\n", "schedule", "packets", "evaluated", "injected", "violations")
	var cfgs []nfcatalog.GridConfig
	for _, sch := range difftest.Schedules() {
		cfgs = append(cfgs, nfcatalog.GridConfig{Packets: packets, Schedule: sch.Name})
	}
	runGridTable(difftest.AxisChaos, cfgs, stats, func(cfg nfcatalog.GridConfig, rep *difftest.Report) {
		fmt.Printf("%-12s %10d %12d %12d %12d\n",
			cfg.Schedule, rep.Packets, rep.Evaluated, rep.Injected, rep.Total)
	})
}

// runGridTable runs one conformance-grid axis once per config and prints
// a table row (then any violations) for each; exits non-zero if any run
// breached its contract.
func runGridTable(axis string, cfgs []nfcatalog.GridConfig, stats bool, row func(nfcatalog.GridConfig, *difftest.Report)) {
	var total uint64
	reg := telemetry.NewRegistry()
	for _, cfg := range cfgs {
		rep, err := difftest.Run(axis, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		row(cfg, rep)
		for _, v := range rep.Violations {
			fmt.Printf("    %s\n", v)
		}
		rep.Publish(reg)
		total += rep.Total
	}
	if stats {
		fmt.Println()
		if err := reg.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if total > 0 {
		os.Exit(1)
	}
}
