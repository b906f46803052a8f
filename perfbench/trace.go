package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory: one span per call the
// benchmark makes into a layer's public function, with the span that caused
// it. Spans of one request or search share a trace id. They are written out
// when the run ends. All methods are safe on a nil tracer, which records
// nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: t.ids.Add(1), Name: name, Start: int64(time.Since(t.t0))}
	s.Trace = s.ID
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	}
	return s
}

// end closes s and returns its duration.
func (t *tracer) end(s *span) time.Duration {
	if t == nil || s == nil {
		return 0
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
	return time.Duration(s.End - s.Start)
}

// durations returns the duration of every closed span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// total is the summed duration of the spans with the given name, in
// seconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum / 1e9
}

// medianUS is the median duration of the spans with the given name, in µs.
func (t *tracer) medianUS(name string) float64 { return median(t.durations(name)) / 1e3 }

type layerTime struct {
	count      int
	total, own float64 // seconds
}

// layers sums, per span name, the count, the total duration, and the self
// time: each span's duration minus the part of it its children cover.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := float64(s.End-s.Start) / 1e9
		lt.count++
		lt.total += d
		lt.own += d - covered(kids[s.ID], s.Start, s.End)/1e9
	}
	return out
}

// covered is the length of [lo, hi] covered by the union of the spans.
func covered(spans []span, lo, hi int64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum, cur int64 = 0, lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return float64(sum)
}

// printLayers prints every span name's count, total and self time.
func (t *tracer) printLayers(w io.Writer) {
	lt := t.layers()
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range sortedKeys(lt) {
		fmt.Fprintf(w, "%-28s %8d %12.6f %12.6f\n", name, lt[name].count, lt[name].total, lt[name].own)
	}
}

// write saves the spans as JSONL, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("spans: %s\n", path)
	return f.Close()
}
