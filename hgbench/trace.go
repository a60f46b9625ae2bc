package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer's public function, recorded by the
// benchmark around the call. Times are offsets from the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root span
	Run    string `json:"run"`
	Req    string `json:"req,omitempty"` // the request (job, test) the span serves
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the part its children cover
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one traced run in memory; writeTrace dumps
// them when the run ends. Its methods are safe for concurrent use, and a
// nil tracer (tracing off) records nothing.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// add records an already-measured interval as a closed span, for
// intervals timestamped elsewhere (a server job's queue wait and run).
func (t *tracer) add(name string, parent int, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, f func(id int)) time.Duration {
	start := time.Now()
	id := t.begin(name, parent, "")
	f(id)
	t.end(id)
	return time.Since(start)
}

// finish computes every span's self time: its duration minus the union
// of its children's intervals (children of a pool overlap each other). A
// span still open (a pass that stopped early) is closed now.
func (t *tracer) finish() []span {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].End < 0 {
			t.spans[i].End = now
		}
	}
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].Self = (out[i].End - out[i].Start) - covered(kids[out[i].ID], out[i].Start, out[i].End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByName sums self time per span name, the trace's per-layer view.
func selfByName(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.Self)
	}
	return out
}

// writeTrace dumps the spans as one JSON document and prints the
// per-name self-time summary to w.
func writeTrace(path string, header any, spans []span, w io.Writer) error {
	data, err := json.Marshal(struct {
		Header any    `json:"header"`
		Spans  []span `json:"spans"`
	}{header, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "trace: %d spans written to %s; self time by span:\n", len(spans), path)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %10.3fs\n", n, self[n].Seconds())
	}
	return nil
}
