package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestAdmitRejectsPastCapacity pins the admission bound: QueueCap+Workers
// requests are admitted at once, the next one is answered 429 with
// Retry-After, and a release admits again.
func TestAdmitRejectsPastCapacity(t *testing.T) {
	s := New(Config{QueueCap: 2, Workers: 1}, fixture(t), nil)
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

// TestScorePanicReleasesTurn scores panicking requests, more of them than
// there are turns and slots, the way a handler does: the panic must give back
// the turn and the slot, and the pool must still score afterwards.
func TestScorePanicReleasesTurn(t *testing.T) {
	s := New(Config{QueueCap: 1, Workers: 2}, fixture(t), nil)
	panicking := func() (recovered any) {
		defer func() { recovered = recover() }()
		if !s.admit(httptest.NewRecorder()) {
			t.Fatal("slot leaked by an earlier panic")
		}
		defer s.release()
		s.score(nil, func() { panic("boom") })
		return nil
	}
	for i := 0; i < 2*cap(s.slots); i++ {
		if got := panicking(); got != "boom" {
			t.Fatalf("request %d recovered %v, want the scoring panic", i, got)
		}
		if len(s.turns) != 0 || len(s.slots) != 0 {
			t.Fatalf("after panic %d: %d held turns and %d held slots, want 0 and 0",
				i+1, len(s.turns), len(s.slots))
		}
	}
	ran := false
	s.score(nil, func() { ran = true })
	if !ran {
		t.Fatal("after the panics the pool did not score")
	}
}
