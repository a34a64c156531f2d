package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-5); got != Workers(0) {
		t.Errorf("Workers(-5) = %d, want %d", got, Workers(0))
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 103
		hits := make([]int32, n)
		ForEach(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroAndSmallN(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("called for n=0") })
	calls := 0
	ForEach(4, 1, func(i int) { calls++ })
	if calls != 1 {
		t.Errorf("n=1: %d calls", calls)
	}
}

func TestForEachWorkerSlotsBounded(t *testing.T) {
	const workers, n = 3, 50
	var bad atomic.Bool
	seen := make([]int32, n)
	ForEachWorker(workers, n, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Store(true)
		}
		atomic.AddInt32(&seen[i], 1)
	})
	if bad.Load() {
		t.Error("worker slot out of range")
	}
	for i, h := range seen {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		err := ForEachErr(workers, 20, func(i int) error {
			switch i {
			case 7:
				return errA
			case 13:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: got %v, want error from index 7", workers, err)
		}
	}
	if err := ForEachErr(4, 10, func(int) error { return nil }); err != nil {
		t.Errorf("unexpected error %v", err)
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out := Map(workers, 64, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapReduceDeterministicSum(t *testing.T) {
	// A floating-point sum whose value depends on association order; index-
	// ordered reduction must make it identical for every worker count.
	mapFn := func(i int) float64 { return 1.0 / float64(i+1) }
	reduce := func(a, v float64) float64 { return a + v }
	want := MapReduce(1, 1000, mapFn, 0.0, reduce)
	for _, workers := range []int{2, 4, 8} {
		if got := MapReduce(workers, 1000, mapFn, 0.0, reduce); got != want {
			t.Errorf("workers=%d: sum %v != %v", workers, got, want)
		}
	}
}

// TestInlineFastPathAgreesWithPool pins the ForEach inline fast path (taken
// when n == 1 or one worker resolves) to the pooled path: identical visit
// sets, identical Map results, and bit-identical MapReduce sums. It also
// checks the inline path really is inline: fn observes the caller's goroutine
// state without synchronization (a plain, non-atomic counter is safe).
func TestInlineFastPathAgreesWithPool(t *testing.T) {
	const n = 257
	mapFn := func(i int) float64 { return 1.0 / float64(3*i+1) }
	reduce := func(a, v float64) float64 { return a + v }

	// Inline path: workers == 1.
	plainCount := 0 // non-atomic on purpose: inline execution must not race
	ForEach(1, n, func(i int) { plainCount++ })
	if plainCount != n {
		t.Fatalf("inline ForEach made %d calls, want %d", plainCount, n)
	}

	inlineMap := Map(1, n, mapFn)
	pooledMap := Map(4, n, mapFn)
	for i := range inlineMap {
		if inlineMap[i] != pooledMap[i] {
			t.Fatalf("Map disagrees at %d: inline %v, pooled %v", i, inlineMap[i], pooledMap[i])
		}
	}

	inlineSum := MapReduce(1, n, mapFn, 0.0, reduce)
	pooledSum := MapReduce(4, n, mapFn, 0.0, reduce)
	if inlineSum != pooledSum {
		t.Fatalf("MapReduce disagrees: inline %v, pooled %v", inlineSum, pooledSum)
	}

	// n == 1 takes the inline path regardless of the requested worker count.
	calls := 0
	ForEach(8, 1, func(i int) {
		if i != 0 {
			t.Fatalf("n=1 visited index %d", i)
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("n=1 made %d calls", calls)
	}
}
