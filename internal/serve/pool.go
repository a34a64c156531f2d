package serve

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The replica pool scores every request on its own handler goroutine. It is
// two channels on the Server:
//
//   - slots is a counting semaphore of QueueCap+Workers admission slots. A
//     handler takes one without blocking right after its body decodes, before
//     any parse, evaluation or scoring, and holds it until it returns, so the
//     bound covers query evaluation as well as scoring. A full daemon answers
//     429 with Retry-After.
//   - replicas holds the Workers model replicas (core.Model.CloneForWorker:
//     shared read-only weights, private workspaces). An admitted handler waits
//     for one, scores on it and puts it back. Blocked channel receivers are
//     served in arrival order, so replicas go to waiting handlers first come,
//     first served.
//
// Both go back with defer: net/http recovers a panicking handler, and the
// panic neither leaks a slot nor shrinks the pool. Draining needs no code of
// its own, because http.Server.Shutdown waits for running handlers.

// replica is one pooled model replica and the model generation it was cloned
// from. The server's generation starts at 1, so a zero replica clones on its
// first use.
type replica struct {
	gen   int64
	model *core.Model
}

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

// score waits for a free replica, re-clones it when the served model was
// swapped since it was cloned, and runs fn on it. It records three stages on
// tc and in their serve.stage.* histograms: queue_wait (waiting for the
// replica), batch_wait (the generation check and any re-clone) and score
// (fn). A swap between the generation load and the clone costs one redundant
// re-clone on the replica's next use, never a score on stale weights beyond
// the request already in flight.
func (s *Server) score(tc *obs.TraceContext, fn func(*core.Model)) {
	wait := time.Now()
	rep := <-s.replicas
	defer func() { s.replicas <- rep }()
	got := time.Now()
	s.mBatch.Observe(1)
	if gen := s.gen.Load(); gen != rep.gen {
		rep.gen, rep.model = gen, s.state().model.CloneForWorker()
	}
	start := time.Now()
	fn(rep.model)
	done := time.Now()
	tc.AddStage("queue_wait", wait, got.Sub(wait))
	tc.AddStage("batch_wait", got, start.Sub(got))
	tc.AddStage("score", start, done.Sub(start))
	s.mQueueWait.Observe(durMS(got.Sub(wait)))
	s.mBatchWait.Observe(durMS(start.Sub(got)))
	s.mScore.Observe(durMS(done.Sub(start)))
}
