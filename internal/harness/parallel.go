package harness

import (
	"fmt"
	"sync"
	"time"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/trace"
)

// RSS-sharded parallel replay. A real multi-queue NIC hashes each
// packet's flow 5-tuple onto a receive queue and every queue is
// serviced by its own core running its own program instance over
// per-CPU maps. ParallelRun reproduces that scaling model in the
// simulation: the trace is hash-partitioned by pktgen.FlowHash, each
// shard gets its own NF instance (own VM, own maps — built by the
// ShardBuilder), and the shards replay concurrently, one goroutine
// each. Per-flow state never crosses a shard boundary, which is
// exactly the property RSS gives kernel NFs.

// ShardBuilder constructs shard `shard`'s instance from that shard's
// sub-trace. Each call must return a fresh instance backed by its own
// VM and maps (the per-CPU analogue); sharing state across shards
// would reintroduce the cross-core contention RSS exists to avoid.
// Builders are invoked serially before any replay starts, so they may
// share state the replays do not touch (a Sharded's wiring) without a
// lock.
type ShardBuilder func(shard int, trace *pktgen.Trace) (nf.Instance, error)

// ShardResult is one shard's contribution to a parallel replay.
type ShardResult struct {
	Shard   int
	Packets int     // sub-trace length
	PPS     float64 // this shard's packets per second over its own run time
	// Verdicts tallies this shard's measured trials.
	Verdicts VerdictCounts
}

// ParallelResult is the merged outcome of a sharded replay.
type ParallelResult struct {
	Name   string
	Flavor string
	Shards int
	Trials int
	// PPS is the aggregate throughput: total packets replayed across
	// all shards and trials, divided by the wall-clock time with every
	// shard running concurrently.
	PPS     float64
	NsPerOp float64 // wall-clock ns per packet at the aggregate rate
	// Verdicts is the merge of every shard's tally. Because the
	// flow→shard assignment depends only on flow keys, NFs whose
	// per-packet verdicts are functions of per-flow and static state
	// produce identical merged counts at any shard count.
	Verdicts VerdictCounts
	// Stats merges the per-shard VM counters when the instances are
	// VM-backed and stats are enabled; nil otherwise.
	Stats *vm.Stats
	// PerShard holds the per-shard breakdown, indexed by shard.
	PerShard []ShardResult
	// Events is the per-shard flight-recorder merge in timestamp order
	// (ParallelRunTraced only; nil otherwise). Rings are attached after
	// the warm-up pass, so events cover exactly the measured trials.
	Events []trace.Event
	// TraceEmitted / TraceDrops total the per-shard ring accounting.
	TraceEmitted uint64
	TraceDrops   uint64
}

func (r ParallelResult) String() string {
	return fmt.Sprintf("%-14s %-8s shards=%d %10.0f pps %8.1f ns/pkt",
		r.Name, r.Flavor, r.Shards, r.PPS, r.NsPerOp)
}

// ParallelRun hash-partitions trace across `shards` instances built by
// build and replays all shards concurrently, `trials` timed passes
// each after one untallied warm-up pass. The trace must already carry
// its op mix (nfcatalog.PrepareTrace) — mixing after sharding would
// make packet contents depend on the shard count.
func ParallelRun(tr *pktgen.Trace, shards int, build ShardBuilder, trials int) (*ParallelResult, error) {
	return parallelRun(tr, shards, build, trials, nil)
}

// ParallelRunTraced is ParallelRun with per-shard flight recorders: each
// shard's VMs get their own ring (per-CPU ringbuf idiom) configured by
// tcfg.ForShard, attached between the warm-up and measured passes, and
// the rings are drained and merged in timestamp order into
// ParallelResult.Events after the run.
func ParallelRunTraced(tr *pktgen.Trace, shards int, build ShardBuilder, trials int, tcfg trace.Config) (*ParallelResult, error) {
	return parallelRun(tr, shards, build, trials, &tcfg)
}

func parallelRun(tr *pktgen.Trace, shards int, build ShardBuilder, trials int, tcfg *trace.Config) (*ParallelResult, error) {
	if shards <= 0 {
		shards = 1
	}
	if trials <= 0 {
		trials = 3
	}
	if len(tr.Packets) == 0 {
		return nil, fmt.Errorf("harness: empty trace")
	}
	subs := tr.Shard(shards)
	insts := make([]nf.Instance, len(subs))
	for s, sub := range subs {
		inst, err := build(s, sub)
		if err != nil {
			return nil, fmt.Errorf("harness: shard %d: %w", s, err)
		}
		insts[s] = inst
	}

	// replay runs one full pass of shard s, tallying verdicts when
	// tally is non-nil (warm-up passes are untallied, like Throughput).
	replay := func(s int, tally *VerdictCounts) error {
		sub, inst := subs[s], insts[s]
		for i := range sub.Packets {
			v, err := inst.Process(sub.Packets[i][:])
			if err != nil {
				return fmt.Errorf("%s/%s: shard %d packet %d: %w",
					inst.Name(), inst.Flavor(), s, i, err)
			}
			if tally != nil {
				tally.Count(v)
			}
		}
		return nil
	}

	run := func(measured bool) ([]ShardResult, float64, error) {
		res := make([]ShardResult, len(subs))
		errs := make([]error, len(subs))
		var wg sync.WaitGroup
		start := time.Now()
		for s := range subs {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				res[s].Shard = s
				res[s].Packets = len(subs[s].Packets)
				shardStart := time.Now()
				passes := trials
				if !measured {
					passes = 1
				}
				for t := 0; t < passes; t++ {
					var tally *VerdictCounts
					if measured {
						tally = &res[s].Verdicts
					}
					if err := replay(s, tally); err != nil {
						errs[s] = err
						return
					}
				}
				if secs := time.Since(shardStart).Seconds(); secs > 0 {
					res[s].PPS = float64(passes*len(subs[s].Packets)) / secs
				}
			}(s)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
		return res, elapsed, nil
	}

	if _, _, err := run(false); err != nil { // warm-up
		return nil, err
	}
	// Attach per-shard rings after the warm-up so the recorded events
	// (and packet sampling indices) cover exactly the measured trials.
	var recs []*trace.Recorder
	if tcfg != nil {
		recs = make([]*trace.Recorder, len(insts))
		for s, inst := range insts {
			recs[s] = trace.NewRecorder(tcfg.ForShard(s))
			for _, m := range runtime.VMs(inst) {
				m.SetRecorder(recs[s])
			}
		}
	}
	perShard, elapsed, err := run(true)
	if err != nil {
		return nil, err
	}

	total := trials * len(tr.Packets)
	out := &ParallelResult{
		Name:     insts[0].Name(),
		Flavor:   insts[0].Flavor().String(),
		Shards:   shards,
		Trials:   trials,
		PPS:      float64(total) / elapsed,
		NsPerOp:  elapsed * 1e9 / float64(total),
		PerShard: perShard,
	}
	for _, sr := range perShard {
		out.Verdicts.Aborted += sr.Verdicts.Aborted
		out.Verdicts.Drop += sr.Verdicts.Drop
		out.Verdicts.Pass += sr.Verdicts.Pass
		out.Verdicts.Tx += sr.Verdicts.Tx
		out.Verdicts.Other += sr.Verdicts.Other
	}
	for _, inst := range insts {
		for _, m := range runtime.VMs(inst) {
			if m.Stats() == nil {
				continue
			}
			if out.Stats == nil {
				out.Stats = vm.NewStats()
			}
			out.Stats.Merge(m.Stats())
		}
	}
	if recs != nil {
		chunks := make([][]trace.Event, len(recs))
		for s, rec := range recs {
			for _, m := range runtime.VMs(insts[s]) {
				m.SetRecorder(nil)
			}
			chunks[s] = rec.Drain(0)
			out.TraceEmitted += rec.Emitted()
			out.TraceDrops += rec.Drops()
		}
		out.Events = trace.MergeByTime(chunks...)
	}
	return out, nil
}
