package obs

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !hex16.MatchString(id) {
			t.Fatalf("trace ID %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("trace ID %q minted twice", id)
		}
		seen[id] = true
	}
}

func TestTraceContextAdoptsAndMints(t *testing.T) {
	for _, id := range []string{"deadbeefdeadbeef", "req-42.A_z", strings.Repeat("x", 64)} {
		if tc := NewTraceContext(id); tc.TraceID != id {
			t.Errorf("inbound ID %q not adopted: got %q", id, tc.TraceID)
		}
	}
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, id := range []string{"", strings.Repeat("x", 65), "abc def", "a/b", "tab\t", "é"} {
		if tc := NewTraceContext(id); !hex16.MatchString(tc.TraceID) {
			t.Errorf("inbound ID %q: got %q, want a fresh 16-hex ID", id, tc.TraceID)
		}
	}
}

func TestTraceContextStages(t *testing.T) {
	tc := NewTraceContext("")
	start := tc.Begin()
	tc.AddStage("queue_wait", start, 3*time.Millisecond)
	tc.AddStage("score", start.Add(3*time.Millisecond), 5*time.Millisecond)
	// Clock skew: a start before the trace began must clamp to offset 0, and a
	// negative duration to 0, so ring dumps never hold negative Chrome events.
	tc.AddStage("skewed", start.Add(-time.Second), -time.Second)

	stages := tc.Stages()
	if len(stages) != 3 {
		t.Fatalf("recorded %d stages, want 3", len(stages))
	}
	if stages[0].Name != "queue_wait" || stages[0].DurUS != 3000 {
		t.Errorf("stage 0 = %+v, want queue_wait / 3000us", stages[0])
	}
	if stages[1].StartUS != 3000 || stages[1].DurUS != 5000 {
		t.Errorf("stage 1 = %+v, want start 3000us dur 5000us", stages[1])
	}
	if stages[2].StartUS != 0 || stages[2].DurUS != 0 {
		t.Errorf("skewed stage = %+v, want clamped to 0/0", stages[2])
	}
	if got := tc.StageDur("score"); got != 5*time.Millisecond {
		t.Errorf("StageDur(score) = %v, want 5ms", got)
	}
	if got := tc.StageDur("absent"); got != 0 {
		t.Errorf("StageDur(absent) = %v, want 0", got)
	}
	// Stages returns a copy: mutating it must not corrupt the trace.
	stages[0].Name = "mutated"
	if tc.Stages()[0].Name != "queue_wait" {
		t.Error("Stages exposed internal storage")
	}
}

// TestTraceContextAllocs pins what a request's trace costs the heap:
// minting the context and its ID takes 2 allocations, and recording the 7
// stages of a /rank miss none, with a 9th stage past the inline buffer
// still recorded.
func TestTraceContextAllocs(t *testing.T) {
	names := []string{"queue_wait", "batch_wait", "score", "evaluate", "shapley.exact", "shapley.proxy", "write"}
	var tc *TraceContext
	allocs := testing.AllocsPerRun(100, func() {
		tc = NewTraceContext("")
		for _, name := range names {
			tc.AddStage(name, tc.Begin(), time.Microsecond)
		}
	})
	if allocs > 2 {
		t.Errorf("a trace with %d stages allocates %v times, want at most 2", len(names), allocs)
	}
	for i := len(names); i < 9; i++ {
		tc.AddStage("extra", tc.Begin(), time.Microsecond)
	}
	if got := tc.Stages(); len(got) != 9 || got[0].Name != names[0] || got[8].Name != "extra" {
		t.Errorf("stages past the inline buffer: %+v", got)
	}
}

func TestTraceContextStageTimer(t *testing.T) {
	tc := NewTraceContext("")
	end := tc.StageTimer("work")
	end()
	if len(tc.Stages()) != 1 || tc.Stages()[0].Name != "work" {
		t.Errorf("StageTimer recorded %+v, want one stage named work", tc.Stages())
	}
}

func TestTraceContextNilSafe(t *testing.T) {
	var tc *TraceContext
	tc.AddStage("x", time.Now(), time.Second)
	tc.StageTimer("y")()
	if tc.Stages() != nil || tc.StageDur("x") != 0 || !tc.Begin().IsZero() {
		t.Error("nil TraceContext is not a no-op recorder")
	}
}

func TestContextWithTrace(t *testing.T) {
	base := context.Background()
	if got := ContextWithTrace(base, nil); got != base {
		t.Error("nil trace changed the context")
	}
	tc := NewTraceContext("")
	ctx := ContextWithTrace(base, tc)
	if TraceFrom(ctx) != tc {
		t.Error("TraceFrom did not return the attached trace")
	}
	if TraceFrom(base) != nil || TraceFrom(nil) != nil {
		t.Error("TraceFrom on a trace-free context should be nil")
	}
}
