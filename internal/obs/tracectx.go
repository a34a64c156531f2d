package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header a request trace ID travels in. Clients may
// set it to correlate their own logs with the server's; the server echoes it
// on the response and mints a fresh ID when the request carries none, or one
// NewTraceContext does not adopt.
const TraceHeader = "X-Trace-Id"

// traceSeed makes trace IDs distinct across processes; the atomic counter
// makes them distinct within one. splitmix64 scrambles the sum so consecutive
// requests do not get visually adjacent IDs.
var (
	traceSeed    = uint64(time.Now().UnixNano())
	traceCounter atomic.Uint64
	spanCounter  atomic.Uint64
)

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID mints a process-unique 16-hex-digit trace ID.
func NewTraceID() string {
	return fmt.Sprintf("%016x", mix64(traceSeed+traceCounter.Add(1)))
}

// Stage is one timed segment of a request trace: a named interval with its
// start offset from the trace's begin time. Offsets and durations are in
// microseconds — the unit Chrome's trace-event format uses, so ring dumps
// convert without arithmetic.
type Stage struct {
	Name    string `json:"name"`
	SpanID  uint64 `json:"span_id"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// TraceContext identifies one request as it moves through a pipeline and
// accumulates its per-stage latency decomposition. It is carried in a
// context.Context (ContextWithTrace / TraceFrom) from the handler into the
// scoring replica, so serve-side and model-side code attach stages to the
// same trace.
//
// The nil *TraceContext is the no-op recorder: AddStage and StageTimer on nil
// do nothing, so library code can record unconditionally. All methods are
// safe for concurrent use.
type TraceContext struct {
	TraceID string
	SpanID  uint64 // root span of this trace

	begin  time.Time
	mu     sync.Mutex
	stages []Stage
}

// NewTraceContext starts a trace beginning now. It adopts id (e.g. from an
// inbound TraceHeader) when id is 1 to 64 bytes of [0-9A-Za-z._-], and mints a
// fresh one otherwise, so a client cannot make a server echo, store and
// re-render an arbitrary header value.
func NewTraceContext(id string) *TraceContext {
	if !validTraceID(id) {
		id = NewTraceID()
	}
	return &TraceContext{TraceID: id, SpanID: spanCounter.Add(1), begin: time.Now()}
}

// validTraceID reports whether NewTraceContext adopts id.
func validTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// Begin reports when the trace started; zero on the nil trace.
func (tc *TraceContext) Begin() time.Time {
	if tc == nil {
		return time.Time{}
	}
	return tc.begin
}

// AddStage records one named interval on the trace. Starts before the trace
// began clamp to offset 0 (a clock-skewed header cannot produce a negative
// Chrome event). No-op on the nil trace.
func (tc *TraceContext) AddStage(name string, start time.Time, d time.Duration) {
	if tc == nil {
		return
	}
	off := start.Sub(tc.begin)
	if off < 0 {
		off = 0
	}
	if d < 0 {
		d = 0
	}
	tc.mu.Lock()
	tc.stages = append(tc.stages, Stage{
		Name:    name,
		SpanID:  spanCounter.Add(1),
		StartUS: off.Microseconds(),
		DurUS:   d.Microseconds(),
	})
	tc.mu.Unlock()
}

// StageTimer starts a stage now and returns the closer that records it:
//
//	defer tc.StageTimer("core.rank")()
//
// Safe on the nil trace (returns the shared no-op closer).
func (tc *TraceContext) StageTimer(name string) func() {
	if tc == nil {
		return spanNoop
	}
	start := time.Now()
	return func() { tc.AddStage(name, start, time.Since(start)) }
}

// Stages returns a copy of the recorded stages in recording order; nil on the
// nil trace.
func (tc *TraceContext) Stages() []Stage {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]Stage(nil), tc.stages...)
}

// StageDur returns the recorded duration of the first stage with the given
// name, or 0 when absent — the accessor access logs use to pick out the
// queue/score decomposition without walking the slice themselves.
func (tc *TraceContext) StageDur(name string) time.Duration {
	if tc == nil {
		return 0
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, s := range tc.stages {
		if s.Name == name {
			return time.Duration(s.DurUS) * time.Microsecond
		}
	}
	return 0
}

// traceCtxKey keys the TraceContext in a context.Context.
type traceCtxKey struct{}

// ContextWithTrace returns a context carrying tc. A nil tc returns ctx
// unchanged, so callers may thread "maybe a trace" without branching.
func ContextWithTrace(ctx context.Context, tc *TraceContext) context.Context {
	if tc == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the trace carried by ctx, or nil. The lookup allocates
// nothing, so hot paths may consult it per call without breaking the
// zero-allocation contract.
func TraceFrom(ctx context.Context) *TraceContext {
	if ctx == nil {
		return nil
	}
	tc, _ := ctx.Value(traceCtxKey{}).(*TraceContext)
	return tc
}
