package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/shapley"
)

// TestBatcherQueueFull pins the admission bound: QueueCap+Workers requests are
// admitted at once, the next one is answered 429 with Retry-After, and a
// release admits again.
func TestBatcherQueueFull(t *testing.T) {
	corpus, model := fixture(t)
	s := New(Config{QueueCap: 2, Workers: 1}, corpus, model)
	for i := 0; i < 3; i++ {
		if rec := httptest.NewRecorder(); !s.admit(rec) {
			t.Fatalf("admission %d of 3 refused with %d", i+1, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	if s.admit(rec) {
		t.Fatal("admitted a fourth request with QueueCap 2 and 1 worker")
	}
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Errorf("over capacity -> %d with Retry-After %q, want 429 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	s.release()
	if !s.admit(httptest.NewRecorder()) {
		t.Fatal("a release did not free a slot")
	}
}

// TestPoolPanicKeepsReplica scores panicking requests, more of them than there
// are replicas and slots, the way a handler does: the panic must give back the
// replica and the slot, and the pool must still score afterwards.
func TestPoolPanicKeepsReplica(t *testing.T) {
	corpus, model := fixture(t)
	s := New(Config{QueueCap: 1, Workers: 2}, corpus, model)
	panicking := func() (recovered any) {
		defer func() { recovered = recover() }()
		if !s.admit(httptest.NewRecorder()) {
			t.Fatal("slot leaked by an earlier panic")
		}
		defer s.release()
		s.score(nil, func(*core.Model) { panic("boom") })
		return nil
	}
	for i := 0; i < 2*cap(s.slots); i++ {
		if got := panicking(); got != "boom" {
			t.Fatalf("request %d recovered %v, want the scoring panic", i, got)
		}
		if len(s.replicas) != 2 || len(s.slots) != 0 {
			t.Fatalf("after panic %d: %d idle replicas and %d held slots, want 2 and 0",
				i+1, len(s.replicas), len(s.slots))
		}
	}
	cases, err := selfTestCases(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialReference(t, model, cases)[0]
	var got shapley.Values
	s.score(nil, func(m *core.Model) { got = m.Rank(cases[0].in) })
	if len(got) != len(want) {
		t.Fatalf("scored %d facts after the panics, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("fact %d scored %v after the panics, want %v", id, got[id], w)
		}
	}
}
