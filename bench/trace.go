package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one benchmark-side timing around a call into a layer.
type span struct {
	name       string
	id, parent int // parent 0: none
	req        int // request id; 0: none
	thread     int // client index + 1 for requests, 0 for the main goroutine
	start, end time.Time
}

// spanLog keeps the spans of a traced run in memory until it is written out.
// The nil log records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent, req, thread int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, req: req, thread: thread, start: start, end: end})
	return id
}

// begin opens a span on the main goroutine; the returned function ends it.
func (l *spanLog) begin(name string, parent int) (int, func()) {
	id := l.add(name, parent, 0, 0, time.Now(), time.Time{})
	return id, func() {
		if l == nil {
			return
		}
		l.mu.Lock()
		l.spans[id-1].end = time.Now()
		l.mu.Unlock()
	}
}

// timed runs fn inside a span and returns how long it took.
func (l *spanLog) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.add(name, parent, 0, 0, start, end)
	return end.Sub(start)
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args,omitempty"`
}

// writeChrome writes the spans, plus the library's own phase spans from the
// obs tracer (corpus build, labeling, training), as a Chrome trace that
// chrome://tracing and Perfetto load. Times are microseconds from t0, the
// instant the obs tracer started.
func (l *spanLog) writeChrome(w io.Writer, t0 time.Time, tree *obs.SpanNode) error {
	var events []chromeEvent
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		events = append(events, chromeEvent{Name: n.Name, Cat: "obs", Ph: "X", TS: n.StartMS * 1e3, Dur: n.DurationMS * 1e3, PID: 1})
		for _, c := range n.Children {
			walk(c)
		}
	}
	if tree != nil {
		walk(tree)
	}
	l.mu.Lock()
	for _, s := range l.spans {
		args := map[string]int{"span": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		if s.req != 0 {
			args["req"] = s.req
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			TS:  float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.thread, Args: args,
		})
	}
	l.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
