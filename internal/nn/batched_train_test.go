package nn

import (
	"math"
	"math/rand"
	"testing"
)

// gradSnapshot deep-copies every parameter's gradient accumulator.
func gradSnapshot(ps *Params) [][]float64 {
	out := make([][]float64, len(ps.All()))
	for i, p := range ps.All() {
		g := make([]float64, len(p.G))
		copy(g, p.G)
		out[i] = g
	}
	return out
}

// TestBatchedTrainStepMatchesReplicaPath is the gradient bit-identity
// property test for batched training: one packed BatchedStep over B sequences
// must leave exactly the same bits in every Param.G as the per-sample replica
// path — B independent Forward/head/Backward passes on CloneForWorker
// replicas, merged via AddGradsFrom in slot order — across batch sizes, mixed
// sequence lengths and random masks.
func TestBatchedTrainStepMatchesReplicaPath(t *testing.T) {
	cfg := Config{VocabSize: 60, MaxSeqLen: 24, Dim: 16, Heads: 2, Layers: 2, FFNHidden: 32, Segments: 3}
	prng := rand.New(rand.NewSource(60))
	ps := &Params{}
	enc := NewEncoder(cfg, ps, prng)
	head := NewRegressionHead(ps, "head", cfg.Dim, prng)
	rng := rand.New(rand.NewSource(61))
	for _, batch := range []int{1, 2, 4, 7} {
		for trial := 0; trial < 3; trial++ {
			tokens := make([][]int, batch)
			segs := make([][]int, batch)
			masks := make([][]bool, batch)
			y := make([]float64, batch)
			for b := range tokens {
				n := 1 + rng.Intn(cfg.MaxSeqLen)
				tokens[b], segs[b], masks[b] = randSeq(rng, n, cfg.VocabSize, cfg.Segments)
				y[b] = rng.NormFloat64()
			}

			// Replica path: the exact shape of core's training loop.
			ps.ZeroGrad()
			reps := make([]*Params, batch)
			for b := range tokens {
				rp := ps.CloneForWorker()
				rrng := rand.New(rand.NewSource(0)) // unused: weights are shared
				renc := NewEncoder(cfg, rp, rrng)
				rhead := NewRegressionHead(rp, "head", cfg.Dim, rrng)
				h := renc.Forward(tokens[b], segs[b], masks[b])
				pred := rhead.Forward(h)
				g := rhead.Backward(2*(pred-y[b]), h.Rows, h.Cols)
				renc.Backward(g)
				reps[b] = rp
			}
			for _, rp := range reps {
				ps.AddGradsFrom(rp)
			}
			want := gradSnapshot(ps)

			// Packed path on the primary.
			ps.ZeroGrad()
			enc.BatchedStep(tokens, segs, masks, func(hidden *Mat, offs []int, grad *Mat) {
				for b := range offs {
					pred := head.ForwardAt(hidden, offs[b])
					g := head.Backward(2*(pred-y[b]), len(tokens[b]), hidden.Cols)
					copy(grad.Data[offs[b]*hidden.Cols:(offs[b]+len(tokens[b]))*hidden.Cols], g.Data)
				}
			})

			for pi, p := range ps.All() {
				for gi, g := range p.G {
					if math.Float64bits(g) != math.Float64bits(want[pi][gi]) {
						t.Fatalf("batch=%d trial=%d: %s grad %d: packed %v vs replica %v (bits %x vs %x)",
							batch, trial, p.Name, gi, g, want[pi][gi],
							math.Float64bits(g), math.Float64bits(want[pi][gi]))
					}
				}
			}
			ps.ZeroGrad()
		}
	}
}

// TestBatchedBackwardRequiresTrainForward pins the misuse guard: a packed
// backward after an inference-only pass (which skips the sublayer caches)
// must panic rather than read stale state.
func TestBatchedBackwardRequiresTrainForward(t *testing.T) {
	enc, _ := batchedTestEncoder(50)
	pc := enc.EmbedPrefix([]int{1, 2}, []int{0, 0})
	sufs := [][]int{{3}}
	sufSegs := [][]int{{1}}
	masks := [][]bool{{true, true, true}}
	hidden, _ := enc.BatchedForwardMultiPrefix([]*PrefixCache{pc}, sufs, sufSegs, masks)
	grad := enc.Workspace().Get(hidden.Rows, hidden.Cols)
	defer func() {
		if recover() == nil {
			t.Fatal("BatchedBackward after inference-only BatchedForwardMultiPrefix did not panic")
		}
	}()
	enc.BatchedBackward(grad)
}

// TestBatchedTrainStepZeroAllocs pins the steady-state allocation count of a
// warmed packed training step (batched forward with backward caches, head
// readout + loss-gradient fill per sequence, batched backward) to exactly
// zero. Like the other *ZeroAllocs
// gates, scripts/ci.sh fails if this test is skipped.
func TestBatchedTrainStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(62))
	enc, head := batchedTestEncoder(50)
	const batch = 4
	tokens := make([][]int, batch)
	segs := make([][]int, batch)
	masks := make([][]bool, batch)
	y := make([]float64, batch)
	for b := 0; b < batch; b++ {
		n := 5 + 3*b // mixed lengths: the pool is keyed by size class, not last use
		tokens[b], segs[b], masks[b] = randSeq(rng, n, enc.Cfg.VocabSize, enc.Cfg.Segments)
		y[b] = rng.NormFloat64()
	}
	fill := func(hidden *Mat, offs []int, grad *Mat) {
		for b := range offs {
			pred := head.ForwardAt(hidden, offs[b])
			g := head.Backward(2*(pred-y[b]), len(tokens[b]), hidden.Cols)
			copy(grad.Data[offs[b]*hidden.Cols:(offs[b]+len(tokens[b]))*hidden.Cols], g.Data)
		}
	}
	step := func() {
		enc.BatchedStep(tokens, segs, masks, fill)
	}
	step()
	step() // warm: scratch shapes, view headers, staging buffers all pooled
	allocs := testing.AllocsPerRun(20, step)
	if allocs != 0 {
		t.Errorf("warmed packed training step allocates %v objects/op, want 0", allocs)
	}
}
