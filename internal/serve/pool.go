package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// The pool scores every request on its own handler goroutine. It is two
// counting semaphores on the Server:
//
//   - slots holds QueueCap+Workers admission slots. A handler takes one
//     without blocking right after its body decodes, before any parse,
//     evaluation or scoring, and holds it until it returns, so the bound
//     covers query evaluation as well as scoring. A full daemon answers 429
//     with Retry-After.
//   - turns holds Workers compile turns. An admitted handler waits for one,
//     scores on it and gives it back, so at most Workers lineages compile at
//     once. Blocked channel senders are served in arrival order, so turns go
//     to waiting handlers first come, first served.
//
// Both go back with defer: net/http recovers a panicking handler, and the
// panic leaks neither a slot nor a turn. Draining needs no code of its own,
// because http.Server.Shutdown waits for running handlers.

// admit takes an admission slot without blocking. When every slot is taken it
// answers 429 with Retry-After and reports false; otherwise the caller must
// release the slot once it is done.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.slots <- struct{}{}:
		s.mAdmitted.Add(1)
		s.mDepth.Set(float64(len(s.slots)))
		return true
	default:
		s.mRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "server at capacity (%d requests admitted); retry later", cap(s.slots))
		return false
	}
}

// release frees the slot admit took.
func (s *Server) release() {
	<-s.slots
	s.mDepth.Set(float64(len(s.slots)))
}

// score waits for a compile turn and runs fn on it. It records three stages
// on tc and in their serve.stage.* histograms: queue_wait (waiting for the
// turn), batch_wait (the empty interval between taking the turn and running
// fn) and score (fn). batch_wait and serve.batch.size, 1 per scoring, stay
// only because bench/layers.go reads them.
func (s *Server) score(tc *obs.TraceContext, fn func()) {
	wait := time.Now()
	s.turns <- struct{}{}
	defer func() { <-s.turns }()
	got := time.Now()
	s.mBatch.Observe(1)
	start := time.Now()
	fn()
	done := time.Now()
	tc.AddStage("queue_wait", wait, got.Sub(wait))
	tc.AddStage("batch_wait", got, start.Sub(got))
	tc.AddStage("score", start, done.Sub(start))
	s.mQueueWait.Observe(durMS(got.Sub(wait)))
	s.mBatchWait.Observe(durMS(start.Sub(got)))
	s.mScore.Observe(durMS(done.Sub(start)))
}
