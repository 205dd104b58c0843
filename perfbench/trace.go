package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Label    string `json:"label,omitempty"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer started
	EndNs    int64  `json:"end_ns"`
	Ops      int64  `json:"ops"` // operations done inside: grants, sessions, recycles, leaves
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per call site.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	// Preallocated so that recording a span does not allocate inside the
	// allocation counts the rungs measure.
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<15)}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name, label string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Label: label, Workload: t.workload, StartNs: int64(time.Since(t.t0))})
	return id
}

// end closes span id, recording the operations done inside it.
func (t *tracer) end(id int, ops int64) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.spans[id].Ops = ops
}

// dur returns span id's duration.
func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].EndNs - t.spans[id].StartNs)
}

// total sums the durations and operations of the spans named name whose
// label is label.
func (t *tracer) total(name, label string) (time.Duration, int64) {
	var d time.Duration
	var ops int64
	for i, s := range t.spans {
		if s.Name == name && s.Label == label {
			d += t.dur(i)
			ops += s.Ops
		}
	}
	return d, ops
}

// nsPerOp is the mean duration per operation over the spans named name with
// label label.
func (t *tracer) nsPerOp(name, label string) float64 {
	d, ops := t.total(name, label)
	if ops == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(ops)
}

// selfTimes returns, per span name, the summed duration and the summed self
// time: each span's duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += t.dur(i)
		}
	}
	out := map[string][2]time.Duration{}
	for i, s := range t.spans {
		acc := out[s.Name]
		acc[0] += t.dur(i)
		acc[1] += t.dur(i) - child[i]
		out[s.Name] = acc
	}
	return out
}

// report writes a per-name table of total and self time to w.
func (t *tracer) report(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %12.3f %12.3f\n", n, float64(st[n][0].Microseconds())/1e3, float64(st[n][1].Microseconds())/1e3)
	}
}

// write stores the spans and the machine stamp as JSON at path.
func (t *tracer) write(path, machine string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b, err := json.Marshal(struct {
		Machine string `json:"machine"`
		Spans   []span `json:"spans"`
	}{machine, t.spans})
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
