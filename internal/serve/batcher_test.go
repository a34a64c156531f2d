package serve

import (
	"errors"
	"testing"
)

// newIdleServer builds a server whose batcher is NOT started, so queue
// behavior is deterministic.
func newIdleServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	corpus, model := fixture(t)
	return New(cfg, corpus, model)
}

func TestBatcherQueueFull(t *testing.T) {
	s := newIdleServer(t, Config{QueueCap: 2, Workers: 1})
	for i := 0; i < 2; i++ {
		if err := s.b.submit(&job{done: make(chan struct{})}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !s.b.full() {
		t.Error("full() = false with queue at capacity")
	}
	if err := s.b.submit(&job{done: make(chan struct{})}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over capacity: %v, want ErrQueueFull", err)
	}
}

// TestBatcherCloseDrains submits real scoring jobs before any dispatcher
// exists, then starts and closes the batcher: close must not return until
// every queued job has been scored.
func TestBatcherCloseDrains(t *testing.T) {
	s := newIdleServer(t, Config{QueueCap: 16, Workers: 2})
	cases, err := selfTestCases(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*job, 0, 6)
	for i := 0; i < 6; i++ {
		j := &job{kind: jobRank, in: cases[i%len(cases)].in, done: make(chan struct{})}
		if err := s.b.submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	s.b.start()
	s.b.close()
	for i, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %d not completed after close", i)
		}
		if len(j.scores) == 0 {
			t.Errorf("job %d drained without scores", i)
		}
	}
	if err := s.b.submit(&job{done: make(chan struct{})}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after close: %v, want ErrStopped", err)
	}
	// close is idempotent.
	s.b.close()
}

// TestBatcherPerRequestDrains covers a lone dispatcher: with one replica
// scoring one job at a time, every queued job is still scored before close
// returns.
func TestBatcherPerRequestDrains(t *testing.T) {
	s := newIdleServer(t, Config{QueueCap: 8, Workers: 1})
	cases, err := selfTestCases(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*job, 0, 4)
	for i := 0; i < 4; i++ {
		j := &job{kind: jobRank, in: cases[i%len(cases)].in, done: make(chan struct{})}
		if err := s.b.submit(j); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.b.start()
	s.b.close()
	for i, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %d not completed after close", i)
		}
		if len(j.scores) == 0 {
			t.Errorf("job %d has no scores", i)
		}
	}
}
