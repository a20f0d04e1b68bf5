package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer: a name, its start and end relative
// to the recorder's origin, the span that caused it (-1 for a root), and the
// job every span of one request or flow job shares.
type span struct {
	Name   string
	Job    int
	Parent int
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory for one goroutine's serial replay; the
// spans are written out once the run ends. Spans nest through a stack, so a
// span's parent is the innermost span open when it began.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
	job    int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// setJob makes every span begun from now on belong to job.
func (r *recorder) setJob(job int) { r.job = job }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Job: r.job, Parent: parent, Start: time.Since(r.origin)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	r.spans[id].End = time.Since(r.origin)
	r.open = r.open[:len(r.open)-1]
}

// do records fn as one span named name.
func (r *recorder) do(name string, fn func() error) error {
	id := r.begin(name)
	defer r.end(id)
	return fn()
}

// add records an interval measured elsewhere (a client-side request whose
// phases were timed on another goroutine) as a span under parent.
func (r *recorder) add(name string, job, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return len(r.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the durations
// of its direct children: the time spent in that layer's own code.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// traceEvent is one Chrome trace-event "complete" event (ph "X"), the JSON
// format Perfetto and chrome://tracing open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as a Chrome trace-event JSON file. Each job
// gets its own track (tid), and args carry the span and parent indices.
func writeChromeTrace(path string, spans []span) error {
	events := make([]traceEvent, 0, len(spans))
	for i, s := range spans {
		events = append(events, traceEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Job,
			Args: map[string]any{"span": i, "parent": s.Parent, "job": s.Job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
