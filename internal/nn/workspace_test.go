package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestWorkspaceRecyclesByShape(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(3, 4)
	b := ws.Get(2, 2)
	a.Data[0], b.Data[0] = 7, 8
	ws.Reset()
	a2 := ws.Get(3, 4)
	if &a2.Data[0] != &a.Data[0] {
		t.Error("same-shape Get after Reset must reuse storage")
	}
	if a2.Data[0] != 0 {
		t.Error("recycled matrix must be zeroed")
	}
	c := ws.Get(3, 4) // second matrix of the same shape in one step
	if &c.Data[0] == &a.Data[0] {
		t.Error("two live matrices must not share storage")
	}
	ws.Reset()
	// Both recycled; two Gets drain the pool, a third allocates fresh.
	m1, m2, m3 := ws.Get(3, 4), ws.Get(3, 4), ws.Get(3, 4)
	if &m1.Data[0] == &m2.Data[0] || &m1.Data[0] == &m3.Data[0] || &m2.Data[0] == &m3.Data[0] {
		t.Error("live matrices alias each other")
	}
	// A different shape of the same size class (12 and 10 elements both
	// round up to 16) reuses the storage, resized and zeroed.
	m3.Data[0] = 9
	ws.Reset()
	p := ws.Get(5, 2)
	if p.Rows != 5 || p.Cols != 2 || len(p.Data) != 10 {
		t.Fatalf("Get(5, 2) returned %dx%d with %d elements", p.Rows, p.Cols, len(p.Data))
	}
	if &p.Data[0] != &m3.Data[0] {
		t.Error("same-size-class Get after Reset must reuse storage")
	}
	for _, v := range p.Data {
		if v != 0 {
			t.Fatal("recycled matrix must be zeroed")
		}
	}
}

func TestWorkspaceFloats(t *testing.T) {
	ws := NewWorkspace()
	f := ws.Floats(5)
	if len(f) != 5 {
		t.Fatalf("Floats(5) length %d", len(f))
	}
	for i := range f {
		f[i] = 1
	}
	ws.Reset()
	f2 := ws.Floats(5)
	if &f2[0] != &f[0] {
		t.Error("Floats must recycle through the pool")
	}
	for _, v := range f2 {
		if v != 0 {
			t.Fatal("recycled Floats must be zeroed")
		}
	}
}

// encoderStep runs one full forward+backward training step, the unit whose
// steady-state allocation count must be zero.
func encoderStep(enc *Encoder, head *RegressionHead, tokens, segments []int, mask []bool) float64 {
	h := enc.Forward(tokens, segments, mask)
	pred := head.Forward(h)
	grad := head.Backward(2 * (pred - 0.5))
	enc.Backward(grad)
	return pred
}

// TestEncoderStepZeroAllocs pins the steady-state heap-allocation count of a
// full encoder forward+backward step to exactly zero. This is the regression
// gate for the workspace arena: any code path that re-grows scratch per step
// fails here. scripts/ci.sh additionally fails if this test is skipped.
func TestEncoderStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(20))
	ps := &Params{}
	enc := NewEncoder(Config{
		VocabSize: 50, MaxSeqLen: 16, Dim: 16, Heads: 2, Layers: 2, FFNHidden: 32,
	}, ps, rng)
	head := NewRegressionHead(ps, "head", 16, rng)
	tokens := []int{2, 5, 9, 11, 3, 0, 0}
	segments := []int{0, 0, 1, 1, 1, 0, 0}
	mask := []bool{true, true, true, true, true, false, false}
	short := []int{2, 7, 3}
	shortSeg := []int{0, 1, 1}
	shortMask := []bool{true, true, true}

	// Warm up: two steps per sequence length so every scratch shape is pooled.
	for i := 0; i < 2; i++ {
		encoderStep(enc, head, tokens, segments, mask)
		encoderStep(enc, head, short, shortSeg, shortMask)
	}
	allocs := testing.AllocsPerRun(20, func() {
		encoderStep(enc, head, tokens, segments, mask)
	})
	if allocs != 0 {
		t.Errorf("warmed encoder step allocates %v objects/op, want 0", allocs)
	}
	// Alternating sequence lengths must also be alloc-free: the pool is keyed
	// by shape, not by last use.
	allocs = testing.AllocsPerRun(20, func() {
		encoderStep(enc, head, tokens, segments, mask)
		encoderStep(enc, head, short, shortSeg, shortMask)
	})
	if allocs != 0 {
		t.Errorf("alternating-length steps allocate %v objects/op, want 0", allocs)
	}
}

// TestReplicaWorkspacesIndependent runs replica encoders concurrently under
// load to demonstrate that CloneForWorker replicas share weights but never
// scratch: with a shared workspace this would race and corrupt outputs.
func TestReplicaWorkspacesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := Config{VocabSize: 40, MaxSeqLen: 12, Dim: 16, Heads: 2, Layers: 2, FFNHidden: 32}
	build := func(ps *Params, r *rand.Rand) *Encoder { return NewEncoder(cfg, ps, r) }
	ps := &Params{}
	primary := build(ps, rng)
	tokens := []int{1, 4, 9, 2}
	segments := []int{0, 0, 1, 1}
	mask := []bool{true, true, true, true}
	want := primary.Forward(tokens, segments, mask).Clone()

	const workers = 4
	outs := make([]*Mat, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wps := ps.CloneForWorker()
		replica := build(wps, rand.New(rand.NewSource(0)))
		wg.Add(1)
		go func(w int, e *Encoder) {
			defer wg.Done()
			var out *Mat
			for rep := 0; rep < 50; rep++ {
				out = e.Forward(tokens, segments, mask)
			}
			outs[w] = out.Clone()
		}(w, replica)
	}
	wg.Wait()
	for w, out := range outs {
		for i := range want.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("replica %d output differs from primary at %d", w, i)
			}
		}
	}
}

// TestPrefixReuseMatchesForward checks prefix reuse on its own: one
// sequence encoded as an embedded prefix cache plus a suffix must give a
// readout row bit-identical to the [CLS] row of the full-row reference pass
// over the whole sequence, as Forward must, at every parityLayers depth.
func TestPrefixReuseMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	prefix := []int{2, 8, 14, 3, 21, 3}
	prefixSeg := []int{0, 0, 0, 0, 1, 1}
	for _, layers := range parityLayers {
		ps := &Params{}
		enc := NewEncoder(Config{
			VocabSize: 60, MaxSeqLen: 20, Dim: 16, Heads: 2, Layers: layers, FFNHidden: 32,
		}, ps, rng)
		head := NewRegressionHead(ps, "head", 16, rng)
		pc := enc.EmbedPrefix(prefix, prefixSeg)
		for trial := 0; trial < 5; trial++ {
			sufLen := 1 + rng.Intn(6)
			suf := make([]int, sufLen)
			sufSeg := make([]int, sufLen)
			for i := range suf {
				suf[i] = rng.Intn(60)
				sufSeg[i] = 1
			}
			full := append(append([]int{}, prefix...), suf...)
			fullSeg := append(append([]int{}, prefixSeg...), sufSeg...)
			mask := make([]bool, len(full))
			for i := range mask {
				mask[i] = true
			}
			label := fmt.Sprintf("prefix reuse, layers=%d trial %d", layers, trial)
			want, wantPred := referenceCLS(t, label, enc, head, full, fullSeg, mask)
			got := enc.BatchedForwardMultiPrefix(
				[]*PrefixCache{pc}, [][]int{suf}, [][]int{sufSeg}, [][]bool{mask})
			assertReadoutsBitEqual(t, label, head, got, []*Mat{want}, []float64{wantPred})
		}
	}
}
