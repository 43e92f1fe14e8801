// Command vmbench compares the three interpreter tiers — wire-format
// reference loop, predecoded fast path, block-compiled jit — and
// writes the committed BENCH_vm.json artifact: the vm_bench
// micro-benchmarks (instruction mixes, call paths, map lookups) and
// every Fig. 3 NF in the eBPF flavour. All tiers run interleaved
// within the invocation, best-of-N samples each, so the comparison
// survives host noise that makes cross-invocation numbers meaningless.
// The -min-geomean gate applies to the jit-vs-wire micro geomean, the
// ratio the jit tier promises.
//
// Usage:
//
//	vmbench [-out BENCH_vm.json] [-reps 5] [-quick] [-min-geomean 4.0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"enetstl/internal/cliopts"
	"enetstl/internal/ebpf/vmbench"
	nfruntime "enetstl/internal/runtime"
)

func main() {
	var (
		out        = flag.String("out", "", "write the JSON report to this path (empty = stdout only)")
		reps       = flag.Int("reps", 5, "interleaved best-of samples per mode")
		quick      = flag.Bool("quick", false, "smoke mode: fewer/shorter samples, no artifact quality")
		minGeomean = flag.Float64("min-geomean", 0, "exit non-zero if the jit-vs-wire micro geomean speedup is below this (0 = report only)")
	)
	rt := cliopts.BindProcess(flag.CommandLine)
	flag.Parse()

	ropts, err := rt.Options()
	if err != nil {
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
	// The tiers under comparison are swept internally; -options only
	// sets the process defaults (stats) for everything else.
	if err := nfruntime.Install(ropts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := vmbench.Config{Reps: *reps}
	if *quick {
		cfg = vmbench.Config{Reps: 2, SampleMs: 5, Packets: 2000}
	}

	micro, geomean, jitGeomean, err := vmbench.RunMicros(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%-16s %12s %12s %12s %9s %9s\n",
		"micro", "wire ns/op", "fast ns/op", "jit ns/op", "fast", "jit")
	for _, m := range micro {
		fmt.Printf("%-16s %12.1f %12.1f %12.1f %8.2fx %8.2fx\n",
			m.Name, m.WireNs, m.FastNs, m.JitNs, m.FastSpeedup, m.JitSpeedup)
	}
	fmt.Printf("%-16s %48.2fx %8.2fx (geomean)\n\n", "", geomean, jitGeomean)

	fig3, err := vmbench.RunFig3(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%-14s %12s %12s %12s %6s %6s %14s %8s\n",
		"fig3 NF", "wire pps", "fast pps", "jit pps", "fast", "jit", "eNetSTL pps", "vs eBPF")
	for _, r := range fig3 {
		fmt.Printf("%-14s %12.0f %12.0f %12.0f %5.2fx %5.2fx %14.0f %7.2fx\n",
			r.NF, r.WirePPS, r.FastPPS, r.JitPPS, r.FastSpeedup, r.JitSpeedup,
			r.ENetSTLPPS, r.ENetSTLvsEBPF)
	}

	rep := vmbench.Report{
		Note: "interleaved best-of-N within one invocation; absolute numbers are " +
			"host-dependent (this artifact was produced on a single shared vCPU, " +
			"so cross-invocation deltas are noise — only the tier ratios within " +
			"one invocation are meaningful)",
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Micro:           micro,
		MicroGeomean:    geomean,
		MicroJitGeomean: jitGeomean,
		Fig3:            fig3,
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	if *minGeomean > 0 && jitGeomean < *minGeomean {
		fmt.Fprintf(os.Stderr, "jit micro geomean speedup %.2fx below required %.2fx\n", jitGeomean, *minGeomean)
		os.Exit(1)
	}
}
