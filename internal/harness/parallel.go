package harness

import (
	"fmt"
	"sync"
	"time"

	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// RSS-sharded replay. A real multi-queue NIC hashes each packet's flow
// 5-tuple onto a receive queue and every queue is serviced by its own
// core running its own program instance over per-CPU maps. The
// simulation reproduces that scaling model with shards: a trace is
// hash-partitioned by pktgen.FlowHash, each shard has its own NF
// instance (own VM, own maps or own copy of a per-CPU map, as
// nfcatalog.Open builds them), and ReplayShards replays every shard on
// its own instance. Per-flow state never crosses a shard boundary,
// which is exactly the property RSS gives kernel NFs.

// ReplayShards is the one shard runner: it replays subs[s] through
// insts[s] passes times, each pass one ReplayBatch with ticks[s]
// threaded on, and returns each shard's summed result and the first
// error in shard order. A shard stops at its first error; the others
// run their passes out. With concurrent set every shard replays on a
// goroutine of its own (ParallelRun's per-core model); otherwise the
// shards replay in shard order on the caller's goroutine, as a daemon
// module's shards must when they share one Stats and one ring.
func ReplayShards(insts []nf.Instance, subs []*pktgen.Trace, ticks []uint64, passes int, concurrent bool) ([]BatchResult, error) {
	res := make([]BatchResult, len(insts))
	errs := make([]error, len(insts))
	replay := func(s int) {
		for p := 0; p < passes; p++ {
			r, next, err := ReplayBatch(insts[s], subs[s], ticks[s])
			ticks[s] = next
			if p == 0 {
				res[s] = r
			} else {
				res[s].Add(r)
			}
			if err != nil {
				errs[s] = fmt.Errorf("%s/%s: shard %d: %w", insts[s].Name(), insts[s].Flavor(), s, err)
				return
			}
		}
	}
	if concurrent {
		var wg sync.WaitGroup
		for s := range insts {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				replay(s)
			}(s)
		}
		wg.Wait()
	} else {
		for s := range insts {
			replay(s)
		}
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

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
	// PerShard holds the per-shard breakdown, indexed by shard.
	PerShard []ShardResult
}

func (r ParallelResult) String() string {
	return fmt.Sprintf("%-14s %-8s shards=%d %10.0f pps %8.1f ns/pkt",
		r.Name, r.Flavor, r.Shards, r.PPS, r.NsPerOp)
}

// ParallelRun hash-partitions tr across insts, one shard per instance,
// and replays the shards concurrently through ReplayShards, `trials`
// timed passes each after one untallied warm-up pass. The instances
// must share nothing: each attached by its own nfcatalog.Attach call,
// and a recorder the caller attaches records the warm-up too. The trace
// must already carry its op mix (nfcatalog.Open or PrepareTrace) —
// mixing after sharding would make packet contents depend on the shard
// count.
func ParallelRun(tr *pktgen.Trace, insts []nf.Instance, trials int) (*ParallelResult, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("harness: no shards")
	}
	if trials <= 0 {
		trials = 3
	}
	if len(tr.Packets) == 0 {
		return nil, fmt.Errorf("harness: empty trace")
	}
	subs := tr.Shard(len(insts))
	ticks := make([]uint64, len(insts))
	if _, err := ReplayShards(insts, subs, ticks, 1, true); err != nil { // warm-up, not tallied
		return nil, err
	}
	start := time.Now()
	measured, err := ReplayShards(insts, subs, ticks, trials, true)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}

	total := trials * len(tr.Packets)
	out := &ParallelResult{
		Name:     insts[0].Name(),
		Flavor:   insts[0].Flavor().String(),
		Shards:   len(insts),
		Trials:   trials,
		PPS:      float64(total) / elapsed,
		NsPerOp:  elapsed * 1e9 / float64(total),
		PerShard: make([]ShardResult, len(measured)),
	}
	for s, r := range measured {
		out.PerShard[s] = ShardResult{Shard: s, Packets: len(subs[s].Packets), Verdicts: r.Verdicts}
		if r.Ns > 0 {
			out.PerShard[s].PPS = float64(r.Packets) / time.Duration(r.Ns).Seconds()
		}
		out.Verdicts.Add(r.Verdicts)
	}
	return out, nil
}
