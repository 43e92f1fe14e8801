// Command bench is the repository's benchmark: it starts the real nfd
// daemon in-process, drives it over loopback TCP from one closed-loop
// client, checks every answer it can against an oracle twin, and reports
// either the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1) of one workload as the last line of standard output.
// BENCHMARK.json at the repository root declares the contract; README.md
// in this directory explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	var cfg config
	var trace int
	var selfcheck, printManifest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all, both passes, one child process each")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span JSONL file of a traced run (default .bench_build/traces/<workload>.jsonl)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = trace != 0

	switch {
	case printManifest:
		os.Stdout.Write(manifest())
	case cfg.workload == "":
		if err := runAll(cfg, selfcheck); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	default:
		if cfg.trace && cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(".bench_build", "traces", cfg.workload+".jsonl")
		}
		fmt.Printf("bench: workload %s seed %d seconds %g trace %d | %s GOMAXPROCS %d nproc %d\n",
			cfg.workload, cfg.seed, cfg.seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
		res, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, f := range res.failures {
			fmt.Println("FAIL:", f)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// child runs one workload pass in a process of its own — heap_mb and
// set-up must not inherit the previous workload's heap — and returns
// the result it printed last.
func child(cfg config, workload string, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s trace %d: %v: %s", workload, trace, runErr, stdout.Bytes())
	}
	if !res.Correct {
		return res, fmt.Errorf("%s trace %d: %d of %d operations failed:\n%s", workload, trace, res.Failed, res.Attempted, stdout.Bytes())
	}
	return res, nil
}

// runAll is the human entry point: every workload, end to end and
// traced, as one table. With selfcheck the end-to-end pass runs twice,
// the two sets interleaved per workload, and any metric that differs
// between them by more than its own bound fails the run.
func runAll(cfg config, selfcheck bool) error {
	fmt.Printf("bench: seed %d seconds %g | %s GOMAXPROCS %d nproc %d\n",
		cfg.seed, cfg.seconds, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	sets := 1
	if selfcheck {
		sets = 2
	}
	e2e := make([]map[string]result, sets)
	layers := map[string]result{}
	for i := range e2e {
		e2e[i] = map[string]result{}
	}
	for _, w := range workloadNames {
		for i := range e2e {
			res, err := child(cfg, w, 0)
			if err != nil {
				return err
			}
			e2e[i][w] = res
		}
		if !selfcheck {
			res, err := child(cfg, w, 1)
			if err != nil {
				return err
			}
			layers[w] = res
		}
	}

	var broken []string
	fmt.Printf("\n%-14s %-5s", "end to end", "unit")
	for _, w := range workloadNames {
		fmt.Printf(" %*s", 16*sets, w)
	}
	fmt.Println()
	for _, m := range endToEnd {
		fmt.Printf("%-14s %-5s", m.Name, m.Unit)
		for _, w := range workloadNames {
			for i := range e2e {
				fmt.Printf(" %16.4f", e2e[i][w].Metrics[m.Name].Value)
			}
			if selfcheck {
				a, b := e2e[0][w].Metrics[m.Name].Value, e2e[1][w].Metrics[m.Name].Value
				if d := (max(a, b) - min(a, b)) / min(a, b); d > m.Bound {
					broken = append(broken, fmt.Sprintf("%s on %s: %.4f vs %.4f differ by %.1f%%, bound %.0f%%", m.Name, w, a, b, 100*d, 100*m.Bound))
				}
			}
		}
		fmt.Println()
	}
	if !selfcheck {
		printLayers(os.Stdout, layers)
	}
	for _, b := range broken {
		fmt.Println("SELFCHECK:", b)
	}
	if len(broken) > 0 {
		return fmt.Errorf("selfcheck: %d metrics moved by more than their bound between two runs of the same code", len(broken))
	}
	return nil
}

func printLayers(out io.Writer, layers map[string]result) {
	fmt.Fprintf(out, "\n%-38s %-6s", "per layer", "unit")
	for _, w := range workloadNames {
		fmt.Fprintf(out, " %16s", w)
	}
	fmt.Fprintln(out)
	byName := append([]metric(nil), perLayer...)
	sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })
	for _, m := range byName {
		fmt.Fprintf(out, "%-38s %-6s", m.Name, m.Unit)
		for _, w := range workloadNames {
			fmt.Fprintf(out, " %16.4f", layers[w].Metrics[m.Name].Value)
		}
		fmt.Fprintln(out)
	}
}
