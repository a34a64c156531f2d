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
// queue-wait = tDequeue-tSubmit, batch-wait (time spent coalescing) =
// tScore-tDequeue, score = tDone-tScore. The handler reads them only after
// done is closed, so the stamps never race.
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
// use; the dispatcher guarantees one job per replica at a time. The job's
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

// replicaSet owns one dispatch goroutine's model replicas and re-clones them
// when the served model was hot-swapped. The generation check is one atomic
// load per batch; cloning happens only after a swap.
type replicaSet struct {
	srv  *Server
	gen  int64
	reps []*core.Model
}

// get returns n replicas of the currently served model, cloning lazily as
// batch sizes grow and keeping warmed replicas (and their workspace arenas)
// across batches. A generation mismatch drops every replica; a swap observed
// between the generation load and the clone only causes one redundant
// re-clone on the next batch, never a stale score beyond the batch already in
// flight.
func (r *replicaSet) get(n int) []*core.Model {
	if gen := r.srv.gen.Load(); gen != r.gen {
		r.gen = gen
		r.reps = r.reps[:0]
	}
	for len(r.reps) < n {
		r.reps = append(r.reps, r.srv.state().model.CloneForWorker())
	}
	return r.reps[:n]
}

// batcher is the admission queue plus dispatch workers.
//
// Queue discipline: submit is non-blocking — a full queue rejects immediately
// (ErrQueueFull) so overload surfaces as backpressure, not as unbounded
// latency. The stopped flag is guarded by mu so close() can safely close the
// jobs channel: submitters hold the read lock across their send, so no send
// can race the close.
//
// Dispatch discipline: with MaxBatch > 1 a single coalescing dispatcher pulls
// the first job, keeps collecting until the batch is full or BatchWindow has
// elapsed, and splits the batch across its replicas (score). While a batch
// is being scored, new arrivals accumulate in the queue, so batch sizes
// adapt to load automatically (light load → singleton batches and no added
// latency beyond the window; heavy load → full batches). With
// MaxBatch <= 1 there is no coalescing: Workers independent dispatchers each
// score one job at a time — the per-request baseline.
type batcher struct {
	srv     *Server
	cfg     Config
	jobs    chan *job
	mu      sync.RWMutex
	stopped bool
	wg      sync.WaitGroup

	mBatch    *obs.Histogram // serve.batch.size: requests per dispatch
	mDepth    *obs.Gauge     // serve.queue.depth: jobs waiting after last dispatch
	mRejected *obs.Counter   // serve.queue.rejected
	mJobs     *obs.Counter   // serve.queue.admitted
	mPacked   *obs.Counter   // serve.batch.packed: batch slices scored via RankMany
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
		mPacked:   reg.Counter("serve.batch.packed"),
	}
}

// start launches the dispatch workers: one coalescing dispatcher when
// batching is on, Workers per-request dispatchers when it is off.
func (b *batcher) start() {
	if b.cfg.MaxBatch > 1 {
		b.wg.Add(1)
		go b.runCoalescing()
		return
	}
	b.wg.Add(b.cfg.Workers)
	for w := 0; w < b.cfg.Workers; w++ {
		go b.runPerRequest()
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

// runCoalescing is the batching dispatcher: collect, flush, score, repeat.
func (b *batcher) runCoalescing() {
	defer b.wg.Done()
	rs := &replicaSet{srv: b.srv}
	batch := make([]*job, 0, b.cfg.MaxBatch)
	for {
		j, ok := <-b.jobs
		if !ok {
			return
		}
		j.tDequeue = time.Now()
		batch = append(batch[:0], j)
		b.collect(&batch)
		b.score(rs, batch)
	}
}

// collect fills the batch until MaxBatch or the batch window closes. A zero
// window takes only the jobs already queued (no added latency). A closed,
// drained queue ends collection immediately.
func (b *batcher) collect(batch *[]*job) {
	if b.cfg.BatchWindow <= 0 {
		for len(*batch) < b.cfg.MaxBatch {
			select {
			case j, ok := <-b.jobs:
				if !ok {
					return
				}
				j.tDequeue = time.Now()
				*batch = append(*batch, j)
			default:
				return
			}
		}
		return
	}
	timer := time.NewTimer(b.cfg.BatchWindow)
	defer timer.Stop()
	for len(*batch) < b.cfg.MaxBatch {
		select {
		case j, ok := <-b.jobs:
			if !ok {
				return
			}
			j.tDequeue = time.Now()
			*batch = append(*batch, j)
		case <-timer.C:
			return
		}
	}
}

// score completes every job of one batch: the batch is partitioned into
// contiguous slices, one per replica, and each replica scores its slice's
// rank jobs through one core.RankMany call — facts of different requests
// share multi-prefix GEMM passes. Slices (not striped single jobs) keep each
// lineage's facts consecutive in the packed chunks. A request's scores are
// exactly the offline RankOn computation — RankMany is bit-identical to
// per-request RankOn by construction — so coalescing and packing change
// scheduling and GEMM sizes, never bytes.
func (b *batcher) score(rs *replicaSet, batch []*job) {
	b.mBatch.Observe(float64(len(batch)))
	b.mDepth.Set(float64(len(b.jobs)))
	reps := rs.get(min(b.cfg.Workers, len(batch)))
	nw := len(reps)
	b.mPacked.Add(int64(nw))
	parallel.ForEachWorker(nw, nw, func(w, sl int) {
		lo, hi := sl*len(batch)/nw, (sl+1)*len(batch)/nw
		scoreSlice(reps[w], batch[lo:hi])
	})
	for _, j := range batch {
		close(j.done)
	}
}

// scoreSlice scores one replica's slice: non-rank jobs (similarity) run
// individually as before; rank jobs are gathered into one RankMany call whose
// results scatter back by position. Every rank job gets the same score-stage
// timestamps — the packed pass IS its model time — and a "core.rank" stage on
// its trace, mirroring what RankCtx records on the per-request path.
func scoreSlice(m *core.Model, jobs []*job) {
	nRank := 0
	for _, j := range jobs {
		if j.kind == jobRank {
			nRank++
		} else {
			j.run(m)
		}
	}
	if nRank == 0 {
		return
	}
	ins := make([]core.Input, 0, nRank)
	ranks := make([]*job, 0, nRank)
	for _, j := range jobs {
		if j.kind == jobRank {
			ins = append(ins, j.in)
			ranks = append(ranks, j)
		}
	}
	start := time.Now()
	vals := m.RankMany(ins)
	end := time.Now()
	for i, j := range ranks {
		j.scores = vals[i]
		j.tScore, j.tDone = start, end
		j.tc.AddStage("core.rank", start, end.Sub(start))
	}
}

// runPerRequest is the baseline dispatcher: one replica, one job at a time.
func (b *batcher) runPerRequest() {
	defer b.wg.Done()
	rs := &replicaSet{srv: b.srv}
	for j := range b.jobs {
		j.tDequeue = time.Now()
		b.mBatch.Observe(1)
		b.mDepth.Set(float64(len(b.jobs)))
		j.run(rs.get(1)[0])
		close(j.done)
	}
}
