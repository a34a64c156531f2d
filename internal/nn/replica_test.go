package nn

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

func testEncoder(t *testing.T) (*Params, *Encoder, *RegressionHead) {
	t.Helper()
	ps := &Params{}
	rng := rand.New(rand.NewSource(1))
	enc := NewEncoder(Config{VocabSize: 40, MaxSeqLen: 12, Dim: 8, Heads: 2, Layers: 1, FFNHidden: 16, Segments: 2}, ps, rng)
	head := NewRegressionHead(ps, "head", 8, rng)
	return ps, enc, head
}

func cloneNet(ps *Params) (*Params, *Encoder, *RegressionHead) {
	rep := ps.CloneForWorker()
	rng := rand.New(rand.NewSource(0)) // unused: replica tensors skip init
	enc := NewEncoder(Config{VocabSize: 40, MaxSeqLen: 12, Dim: 8, Heads: 2, Layers: 1, FFNHidden: 16, Segments: 2}, rep, rng)
	head := NewRegressionHead(rep, "head", 8, rng)
	return rep, enc, head
}

var testSeq = struct {
	tokens, segments []int
	mask             []bool
}{
	tokens:   []int{1, 5, 9, 13, 17, 0},
	segments: []int{0, 0, 0, 1, 1, 0},
	mask:     []bool{true, true, true, true, true, false},
}

func TestReplicaSharesWeightsOwnsGradients(t *testing.T) {
	ps, enc, head := testEncoder(t)
	rep, renc, rhead := cloneNet(ps)

	want := head.Forward(enc.Forward(testSeq.tokens, testSeq.segments, testSeq.mask))
	got := rhead.Forward(renc.Forward(testSeq.tokens, testSeq.segments, testSeq.mask))
	if got != want {
		t.Fatalf("replica forward %v != primary %v", got, want)
	}

	// Backward on the replica must leave the primary's accumulators at zero.
	g := rhead.Backward(1.0)
	renc.Backward(g)
	repNorm, priNorm := 0.0, 0.0
	for i, p := range ps.All() {
		for j := range p.G {
			priNorm += p.G[j] * p.G[j]
			repNorm += rep.All()[i].G[j] * rep.All()[i].G[j]
		}
	}
	if repNorm == 0 {
		t.Fatal("replica accumulated no gradient")
	}
	if priNorm != 0 {
		t.Fatal("replica backward leaked into the primary's accumulators")
	}

	// Merging moves the gradient over and clears the replica.
	ps.AddGradsFrom(rep)
	merged := 0.0
	for _, p := range ps.All() {
		for _, v := range p.G {
			merged += v * v
		}
	}
	if merged != repNorm {
		t.Errorf("merged gradient norm %v != replica norm %v", merged, repNorm)
	}
	for _, p := range rep.All() {
		for _, v := range p.G {
			if v != 0 {
				t.Fatal("replica gradients not cleared after merge")
			}
		}
	}
}

func TestReplicaSeesOptimizerUpdates(t *testing.T) {
	ps, enc, head := testEncoder(t)
	_, renc, rhead := cloneNet(ps)

	before := rhead.Forward(renc.Forward(testSeq.tokens, testSeq.segments, testSeq.mask))
	head.Forward(enc.Forward(testSeq.tokens, testSeq.segments, testSeq.mask))
	g := head.Backward(1.0)
	enc.Backward(g)
	NewAdam(ps, 0.1).Step(1)
	after := rhead.Forward(renc.Forward(testSeq.tokens, testSeq.segments, testSeq.mask))
	if before == after {
		t.Error("replica did not observe the primary's weight update")
	}
	primary := head.Forward(enc.Forward(testSeq.tokens, testSeq.segments, testSeq.mask))
	if after != primary {
		t.Errorf("replica %v and primary %v diverged after update", after, primary)
	}
}

func TestShardReductionMatchesSerialAccumulation(t *testing.T) {
	// Per-sample gradient shards merged in sample order must reproduce the
	// results of any worker count: compute the same 6 samples with 1 and 3
	// workers and compare merged accumulators bitwise.
	samples := [][]int{
		{1, 2, 3, 0, 0, 0}, {4, 5, 6, 7, 0, 0}, {8, 9, 0, 0, 0, 0},
		{10, 11, 12, 13, 14, 0}, {15, 16, 17, 0, 0, 0}, {18, 19, 20, 21, 0, 0},
	}
	run := func(workers int) []float64 {
		ps, _, _ := testEncoder(t)
		type shard struct {
			rep  *Params
			enc  *Encoder
			head *RegressionHead
		}
		shards := make([]shard, len(samples))
		for i := range shards {
			rep, enc, head := cloneNet(ps)
			shards[i] = shard{rep, enc, head}
		}
		parallel.ForEach(workers, len(samples), func(i int) {
			s := shards[i]
			hidden := s.enc.Forward(samples[i], testSeq.segments, testSeq.mask)
			g := s.head.Backward(s.head.Forward(hidden))
			s.enc.Backward(g)
		})
		for i := range shards {
			ps.AddGradsFrom(shards[i].rep)
		}
		var flat []float64
		for _, p := range ps.All() {
			flat = append(flat, p.G...)
		}
		return flat
	}
	a, b := run(1), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gradient element %d differs between worker counts: %v vs %v", i, a[i], b[i])
		}
	}
}
