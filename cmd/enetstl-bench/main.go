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

	"enetstl/internal/experiments"
)

func main() {
	var (
		id      = flag.String("experiment", "all", "experiment ID (table1, fig1, table2, fig3a..fig3x, fig4..fig7) or 'all'")
		packets = flag.Int("packets", 20000, "packets per throughput measurement")
		trials  = flag.Int("trials", 3, "trials per measurement")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		shards  = flag.Int("shards", 4, "largest RSS shard count the parallel-replay experiment sweeps to (doubling from 1)")
	)
	flag.Parse()

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
