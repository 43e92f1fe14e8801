// Batch replay: the one loop that feeds a trace to an instance.
// Throughput times its passes with it and ReplayShards (parallel.go)
// replays every shard through it — the daemon's batches, ParallelRun's
// passes and nfrun -profile's one pass; only Latency, which reads the
// clock around every packet, keeps a loop of its own.

package harness

import (
	"fmt"
	"time"

	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// BatchResult summarizes one batch replay.
type BatchResult struct {
	Packets  int           `json:"packets"`
	Shed     uint64        `json:"shed"`
	Sampled  uint64        `json:"sampled"`
	Verdicts VerdictCounts `json:"-"`
	Ns       int64         `json:"ns"`
	// VerdictMap is the verdict tally in serializable form.
	VerdictMap map[string]uint64 `json:"verdicts"`
}

func (r *BatchResult) finish(start time.Time) {
	r.Ns = time.Since(start).Nanoseconds()
	r.VerdictMap = r.Verdicts.Map()
}

// Add folds o into r, as one batch replayed in parts (a sharded
// module's shards, a timed run's passes): counts and replay time sum,
// and VerdictMap follows the summed tally.
func (r *BatchResult) Add(o BatchResult) {
	r.Packets += o.Packets
	r.Shed += o.Shed
	r.Sampled += o.Sampled
	r.Ns += o.Ns
	r.Verdicts.Add(o.Verdicts)
	r.VerdictMap = r.Verdicts.Map()
}

// arrivalClocked is the guard-fronted ingress (guard.Guarded): packets
// carry a virtual arrival tick and the guard reports its action.
type arrivalClocked interface {
	ProcessAt(pkt []byte, tick uint64) (uint64, guard.Action, error)
}

// ReplayBatch replays tr once through inst. Guard-fronted instances
// are driven on the trace's arrival clock offset by tickBase: each
// batch's arrivals restart at zero, but a guard's tick must be monotone
// for the life of the instance, so the caller threads the returned
// nextTick into the next batch. Unguarded instances ignore the clock.
func ReplayBatch(inst nf.Instance, tr *pktgen.Trace, tickBase uint64) (BatchResult, uint64, error) {
	res := BatchResult{Packets: len(tr.Packets)}
	gp, clocked := inst.(arrivalClocked)
	start := time.Now()
	for i := range tr.Packets {
		var v uint64
		var err error
		if clocked {
			var act guard.Action
			v, act, err = gp.ProcessAt(tr.Packets[i][:], tickBase+tr.ArrivalOf(i))
			switch act {
			case guard.ActionShed:
				res.Shed++
			case guard.ActionSample:
				res.Sampled++
			}
		} else {
			v, err = inst.Process(tr.Packets[i][:])
		}
		if err != nil {
			res.finish(start)
			return res, tickBase, fmt.Errorf("harness: packet %d: %w", i, err)
		}
		res.Verdicts.Count(v)
	}
	res.finish(start)
	nextTick := tickBase
	if n := len(tr.Packets); n > 0 {
		nextTick = tickBase + tr.ArrivalOf(n-1) + 1
	}
	return res, nextTick, nil
}
