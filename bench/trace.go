package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (spans inside the program are a later change). Spans of one
// query share its id; Parent is the index of the enclosing span in the
// trace, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced pass calls the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(when time.Time) int64 {
	if t == nil {
		return 0
	}
	return when.Sub(t.t0).Nanoseconds()
}

// add records a span with known bounds — one the harness timed itself
// or one the server reported (elapsed_us, queue_wait_us) — and returns
// its index.
func (t *tracer) add(name string, parent, query int, startNs, endNs int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: startNs, EndNs: endNs, Parent: parent, Query: query})
	return len(t.spans) - 1
}

// begin opens a span now and returns its index (to parent children on)
// and the function that closes it.
func (t *tracer) begin(name string, parent, query int) (int, func()) {
	if t == nil {
		return -1, func() {}
	}
	id := t.add(name, parent, query, t.at(time.Now()), -1)
	return id, func() {
		end := t.at(time.Now())
		t.mu.Lock()
		t.spans[id].EndNs = end
		t.mu.Unlock()
	}
}

// ms returns the durations of every closed span called name, in
// milliseconds.
func (t *tracer) ms(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// write dumps the trace as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
