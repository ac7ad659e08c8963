package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Harness-side tracing. A traced run records one span at each layer boundary
// the harness can see from outside — around its own calls into the program
// and inside the wrappers it puts on the public seams (service.Substrate,
// service.Journal). Spans stay in memory and are written as JSONL when the
// workload ends. Spans inside the program are a later change.

// span is one timed interval. Trace groups the spans of one request (or of
// one served instance, for spans a whole batch shares); Parent is the ID of
// the span that caused this one, 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	// StartNs / EndNs are nanoseconds since the recorder was created.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// recorder collects spans from any goroutine. A nil recorder records
// nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	limit int

	mu    sync.Mutex
	next  uint64
	spans []span
}

// newRecorder keeps at most limit spans; a long traced window stops
// recording there instead of growing without bound.
func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, spans: make([]span, 0, limit)}
}

// add records one finished span and returns its id (0 when not recorded).
func (r *recorder) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		return 0
	}
	r.next++
	r.spans = append(r.spans, span{
		ID: r.next, Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	return r.next
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeJSONL writes one span per line to dir/<name>.jsonl and returns the
// path.
func (r *recorder) writeJSONL(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// layerTimes is the per-name reading of a span set: the nearest-rank median
// of the spans' durations and of their self times (duration minus the part
// of the interval their child spans cover).
type layerTimes struct {
	count   int
	durP10  time.Duration
	durP50  time.Duration
	durP90  time.Duration
	selfP50 time.Duration
}

func (r *recorder) byName() map[string]layerTimes {
	out := map[string]layerTimes{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()

	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]time.Duration{}
	selfs := map[string][]time.Duration{}
	for _, s := range spans {
		d := time.Duration(s.EndNs - s.StartNs)
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-covered(s, children[s.ID]))
	}
	for name, d := range durs {
		p50, p90, _ := durQuantiles(d)
		s50, _, _ := durQuantiles(selfs[name])
		out[name] = layerTimes{count: len(d), durP10: d[(len(d)-1)/10], durP50: p50, durP90: p90, selfP50: s50}
	}
	return out
}

// covered returns how much of parent's interval its children cover, counting
// overlapping children once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	end := parent.StartNs
	for _, k := range kids {
		lo, hi := k.StartNs, k.EndNs
		if lo < end {
			lo = end
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}
