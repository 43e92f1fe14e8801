// Command enetstl-bench regenerates the paper's evaluation artifacts:
// every table and figure of §6 (see DESIGN.md for the experiment
// index). With no flags it runs everything in paper order.
//
// Usage:
//
//	enetstl-bench [-experiment fig3e] [-packets 20000] [-trials 3] [-shards 4] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"enetstl/internal/difftest"
	"enetstl/internal/experiments"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
)

func main() {
	var (
		id      = flag.String("experiment", "all", "experiment ID (table1, fig1, table2, fig3a..fig3x, fig4..fig7) or 'all'")
		packets = flag.Int("packets", 20000, "packets per throughput measurement")
		trials  = flag.Int("trials", 3, "trials per measurement")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		faults  = flag.Bool("faults", false, "run the chaos fault-injection suite over the full NF catalog instead of the paper experiments")
		attack  = flag.Bool("attack", false, "run the adversarial scenario grid (guard off vs on) over the full NF catalog instead of the paper experiments")
		shards  = flag.Int("shards", 4, "largest RSS shard count the parallel-replay experiment sweeps to (doubling from 1)")
	)
	flag.Parse()

	if *faults {
		runFaults(*packets)
		return
	}
	if *attack {
		runAttack(*packets)
		return
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Desc)
		}
		return
	}

	opts := experiments.Options{Packets: *packets, Trials: *trials, Shards: *shards}
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

	found := false
	for _, r := range experiments.All() {
		if *id == "all" || r.ID == *id {
			run(r)
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *id)
		os.Exit(2)
	}
}

// runAttack replays the full NF catalog under each adversarial scenario
// separately, guard off and guard on, and prints the overload table:
// what the guarded arms admitted, shed, and sampled out, how often they
// degraded, and how many resilience-contract violations escaped (the
// paper-quality answer is zero). Exits non-zero on any violation.
func runAttack(packets int) {
	fmt.Println("attack resilience: full NF catalog, guard off vs on, one row per scenario")
	fmt.Printf("%-16s %6s %10s %10s %10s %10s %10s %11s\n",
		"scenario", "cases", "packets", "admitted", "shed", "sampled", "degrades", "violations")
	var cfgs []nfcatalog.GridConfig
	for _, kind := range pktgen.Scenarios() {
		cfgs = append(cfgs, nfcatalog.GridConfig{Packets: packets, Flows: 192,
			Scenarios: []pktgen.ScenarioKind{kind}})
	}
	runGridTable(difftest.AxisAttack, cfgs, func(cfg nfcatalog.GridConfig, rep *difftest.Report) {
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
func runFaults(packets int) {
	fmt.Println("chaos robustness: full NF catalog + apps, one row per fault schedule")
	fmt.Printf("%-12s %10s %12s %12s %12s\n", "schedule", "packets", "evaluated", "injected", "violations")
	var cfgs []nfcatalog.GridConfig
	for _, sch := range difftest.Schedules() {
		cfgs = append(cfgs, nfcatalog.GridConfig{Packets: packets, Schedule: sch.Name})
	}
	runGridTable(difftest.AxisChaos, cfgs, func(cfg nfcatalog.GridConfig, rep *difftest.Report) {
		fmt.Printf("%-12s %10d %12d %12d %12d\n",
			cfg.Schedule, rep.Packets, rep.Evaluated, rep.Injected, rep.Total)
	})
}

// runGridTable runs one conformance-grid axis once per config and prints
// a table row (then any violations) for each; exits non-zero if any run
// breached its contract.
func runGridTable(axis string, cfgs []nfcatalog.GridConfig, row func(nfcatalog.GridConfig, *difftest.Report)) {
	var total uint64
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
		total += rep.Total
	}
	if total > 0 {
		os.Exit(1)
	}
}
