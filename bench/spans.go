package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the bench made into a layer's public function.
// Times are ns since the recorder was created. Parent is the index of the
// span that caused this one (-1 for an op's root); spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the same workload code runs traced and untraced. The mutex is
// for nomad-soak, whose server-side span closes on an HTTP handler
// goroutine.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index; end closes it. A child opened
// with op < 0 takes its parent's op.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	if op < 0 && parent >= 0 {
		op = r.spans[parent].Op
	}
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may be adjacent, nested in one
// another's interval (only direct children are subtracted, and they are
// clipped to the parent), or overlapping (a union is taken, so time two
// children share is subtracted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent < 0 || s.End < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		self[i] = s.End - s.Start
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, edge int64
		edge = s.Start
		for _, k := range iv {
			lo := max(k[0], edge)
			if k[1] > lo {
				covered += k[1] - lo
				edge = k[1]
			}
		}
		self[i] -= covered
	}
	return self
}

// layerTimes groups spans by name and returns each name's per-span
// durations (total) and self times, in ms, in recording order.
func layerTimes(spans []span) (total, self map[string][]float64) {
	st := selfTimes(spans)
	total, self = map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		total[s.Name] = append(total[s.Name], float64(s.End-s.Start)/1e6)
		self[s.Name] = append(self[s.Name], float64(st[i])/1e6)
	}
	return total, self
}

// traceFile is what bench writes next to its results for one traced
// workload: who produced it, and every span.
type traceFile struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Spans      []span     `json:"spans"`
}

// write stores the recorder's spans as dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string, prov provenance) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	tf := traceFile{Provenance: prov, Workload: workload, Spans: r.spans}
	buf, err := json.Marshal(tf)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}
