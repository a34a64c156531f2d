package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/shapley"
)

// Admission errors. Handlers map ErrQueueFull to 429 (with Retry-After) and
// ErrStopped to 503.
var (
	ErrQueueFull = errors.New("serve: request queue full")
	ErrStopped   = errors.New("serve: server is shutting down")
)

// jobKind selects what a queued job computes.
type jobKind int

const (
	jobRank jobKind = iota // score one lineage (Model.Rank)
	jobSim                 // pre-training head similarities (PredictSimilarities)
)

// job is one admitted scoring request. The submitting handler blocks on done;
// the dispatch worker that scores the job fills the result field for its kind
// and closes done exactly once.
//
// The timestamps decompose the job's life for the request trace: tSubmit is
// stamped at admission, tDequeue when a dispatcher pulls the job off the
// queue, tScore when its replica starts scoring, tDone when scoring finished.
// queue-wait = tDequeue-tSubmit, batch-wait (the replica generation check,
// plus a re-clone after a hot swap) = tScore-tDequeue, score = tDone-tScore.
// The handler reads them only after done is closed, so the stamps never race.
type job struct {
	kind jobKind
	in   core.Input // jobRank
	simA string     // jobSim
	simB string

	tc                               *obs.TraceContext // nil outside an instrumented handler
	tSubmit, tDequeue, tScore, tDone time.Time

	scores shapley.Values
	sims   map[string]float64
	done   chan struct{}
}

// run executes the job on one replica. Replicas are not safe for concurrent
// use; each dispatcher owns its replica and runs one job at a time. The job's
// trace context rides into the model through the scoring context, so the
// model-side stage ("core.rank") lands on the same trace as the serve-side
// decomposition.
func (j *job) run(m *core.Model) {
	j.tScore = time.Now()
	switch j.kind {
	case jobRank:
		j.scores = m.RankCtx(obs.ContextWithTrace(context.Background(), j.tc), j.in)
	case jobSim:
		end := j.tc.StageTimer("core.similar")
		j.sims = m.PredictSimilarities(j.simA, j.simB)
		end()
	}
	j.tDone = time.Now()
}

// replicaSet owns one dispatch goroutine's model replica and re-clones it
// when the served model was hot-swapped. The generation check is one atomic
// load per job; cloning happens only after a swap.
type replicaSet struct {
	srv *Server
	gen int64
	rep *core.Model
}

// get returns a replica of the currently served model, keeping the warmed
// replica (and its workspace arena) across jobs. The server's generation
// starts at 1, so the first call clones. A swap observed between the
// generation load and the clone only causes one redundant re-clone on the
// next job, never a stale score beyond the job already in flight.
func (r *replicaSet) get() *core.Model {
	if gen := r.srv.gen.Load(); gen != r.gen {
		r.gen = gen
		r.rep = r.srv.state().model.CloneForWorker()
	}
	return r.rep
}

// batcher is the admission queue plus its dispatch workers.
//
// Queue discipline: submit is non-blocking — a full queue rejects immediately
// (ErrQueueFull) so overload surfaces as backpressure, not as unbounded
// latency. The stopped flag is guarded by mu so close() can safely close the
// jobs channel: submitters hold the read lock across their send, so no send
// can race the close.
//
// Dispatch discipline: Workers dispatch goroutines each own one model replica
// and score one job at a time, so a request waits only for a free replica.
type batcher struct {
	srv     *Server
	cfg     Config
	jobs    chan *job
	mu      sync.RWMutex
	stopped bool
	wg      sync.WaitGroup

	// serve.batch.size records 1 per dispatch; bench/layers.go still reads
	// its mean as serve.batch_size_mean.
	mBatch    *obs.Histogram
	mDepth    *obs.Gauge   // serve.queue.depth: jobs waiting after last dispatch
	mRejected *obs.Counter // serve.queue.rejected
	mJobs     *obs.Counter // serve.queue.admitted
}

func defaultWorkers() int { return parallel.Workers(0) }

func newBatcher(s *Server) *batcher {
	reg := obs.Metrics()
	return &batcher{
		srv:       s,
		cfg:       s.cfg,
		jobs:      make(chan *job, s.cfg.QueueCap),
		mBatch:    reg.Histogram("serve.batch.size", []float64{1, 2, 4, 8, 16, 32, 64}),
		mDepth:    reg.Gauge("serve.queue.depth"),
		mRejected: reg.Counter("serve.queue.rejected"),
		mJobs:     reg.Counter("serve.queue.admitted"),
	}
}

// start launches the Workers dispatch goroutines.
func (b *batcher) start() {
	b.wg.Add(b.cfg.Workers)
	for w := 0; w < b.cfg.Workers; w++ {
		go b.dispatch()
	}
}

// full reports whether the queue is at capacity right now — the cheap
// pre-admission check handlers use to reject before doing request work.
func (b *batcher) full() bool { return len(b.jobs) == cap(b.jobs) }

// submit admits one job. It never blocks: the job is either queued (nil), the
// queue is full (ErrQueueFull), or the server is draining (ErrStopped).
func (b *batcher) submit(j *job) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.stopped {
		return ErrStopped
	}
	j.tSubmit = time.Now()
	select {
	case b.jobs <- j:
		b.mJobs.Add(1)
		b.mDepth.Set(float64(len(b.jobs)))
		return nil
	default:
		b.mRejected.Add(1)
		return ErrQueueFull
	}
}

// close stops admission and waits for the dispatchers to drain every queued
// job. Safe to call more than once.
func (b *batcher) close() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.stopped = true
	b.mu.Unlock()
	// No submitter can be inside a send now (they check stopped under the
	// read lock), so closing the channel is race-free. Dispatchers keep
	// receiving buffered jobs until the queue is empty, score them, and exit.
	close(b.jobs)
	b.wg.Wait()
}

// dispatch is one dispatch worker: it scores queued jobs one at a time on its
// own replica until the queue is closed and drained.
func (b *batcher) dispatch() {
	defer b.wg.Done()
	rs := &replicaSet{srv: b.srv}
	for j := range b.jobs {
		j.tDequeue = time.Now()
		b.mBatch.Observe(1)
		b.mDepth.Set(float64(len(b.jobs)))
		j.run(rs.get())
		close(j.done)
	}
}
