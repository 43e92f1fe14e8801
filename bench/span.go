package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary. Spans of one ingest
// request share Batch; Parent is the ID of the span that caused this one
// (0 for the root). Src says where the duration was measured: "client"
// around the HTTP call, "daemon" from the ns the daemon reports, "twin"
// around the oracle twin's call into the layer, "vmstats" from the
// twin's vm.ProgStats deltas scaled to the daemon's replay time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Name   string `json:"name"`
	Src    string `json:"src"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct{ spans []span }

// add appends a span lasting dur from start under parent and returns
// its ID.
func (l *spanLog) add(parent, batch int, name, src string, start, dur int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Batch: batch, Name: name, Src: src, Start: start, End: start + dur})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus what its children cover. The benchmark lays the
// children of a span end to end, so they never overlap each other. One
// span's children may outlast it (a twin step timed in a slow moment
// against a parent timed in a fast one); that cancels within the name's
// sum. A name whose sum is negative has children that outlast it
// systematically: its self time is 0 and the excess is returned in over
// — time the tree attributes twice.
func selfTimes(spans []span) (self, over map[string]int64) {
	self, over = map[string]int64{}, map[string]int64{}
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		self[s.Name] += s.dur() - covered[s.ID]
	}
	for name, d := range self {
		if d < 0 {
			self[name], over[name] = 0, -d
		}
	}
	return self, over
}

// accounting checks that the layers' self times add up to the traced
// round-trips: the residual is the doubly attributed time as a share of
// the root spans' total. worst names the span whose children overran it
// the most ("" when none did).
func accounting(spans []span) (residual float64, worst string) {
	self, over := selfTimes(spans)
	var root, sum int64
	for _, s := range spans {
		if s.Parent == 0 {
			root += s.dur()
		}
	}
	if root == 0 {
		return 0, ""
	}
	for _, d := range self {
		sum += d
	}
	names := make([]string, 0, len(over))
	for n := range over {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return over[names[i]] > over[names[j]] })
	if len(names) > 0 {
		worst = names[0]
	}
	return float64(sum-root) / float64(root), worst
}

// writeJSONL writes the spans one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
