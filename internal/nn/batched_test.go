package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// parityLayers are the encoder depths the packed-parity tests run at: the
// readout-only last layer is the whole encoder at 1 layer, and follows one
// and two full layers at 2 and 3.
var parityLayers = []int{1, 2, 3}

// batchedTestEncoder builds a small encoder with the given number of layers
// for the batched-parity property tests.
func batchedTestEncoder(seed int64, layers int) (*Encoder, *RegressionHead) {
	rng := rand.New(rand.NewSource(seed))
	ps := &Params{}
	enc := NewEncoder(Config{
		VocabSize: 60, MaxSeqLen: 24, Dim: 16, Heads: 2, Layers: layers, FFNHidden: 32, Segments: 3,
	}, ps, rng)
	head := NewRegressionHead(ps, "head", 16, rng)
	return enc, head
}

// randSeq draws one sequence of length n with a random real/padding split
// (at least one real position).
func randSeq(rng *rand.Rand, n, vocab, segments int) (tokens, segs []int, mask []bool) {
	tokens = make([]int, n)
	segs = make([]int, n)
	mask = make([]bool, n)
	real := 1 + rng.Intn(n)
	for i := 0; i < n; i++ {
		tokens[i] = rng.Intn(vocab)
		segs[i] = rng.Intn(segments)
		mask[i] = i < real
	}
	return
}

// assertReadoutsBitEqual checks the readout rows of a packed pass against
// the per-sequence references: one row per sequence, row b bit-identical to
// row 0 ([CLS]) of the full-row reference pass over sequence b (see
// referenceCLS, which also holds Forward to that row), and the head's
// prediction from row b bit-identical to its prediction from that row.
func assertReadoutsBitEqual(t *testing.T, label string, head *RegressionHead, readout *Mat, want []*Mat, wantPred []float64) {
	t.Helper()
	if readout.Rows != len(want) || readout.Cols != want[0].Cols {
		t.Fatalf("%s: readout is %dx%d, want %dx%d", label, readout.Rows, readout.Cols, len(want), want[0].Cols)
	}
	for b := range want {
		rrow, wrow := readout.Row(b), want[b].Row(0)
		for j := range wrow {
			if math.Float64bits(rrow[j]) != math.Float64bits(wrow[j]) {
				t.Fatalf("%s: sequence %d col %d: readout %v vs reference %v",
					label, b, j, rrow[j], wrow[j])
			}
		}
		if got := head.ForwardAt(readout, b); math.Float64bits(got) != math.Float64bits(wantPred[b]) {
			t.Fatalf("%s: sequence %d: head %v vs reference %v", label, b, got, wantPred[b])
		}
	}
}

// TestBatchedForwardMatchesForward property-tests the packed pass on padded
// sequences: each random sequence (with a random real/padding mask split) is
// cut at a random point into an embedded prefix and a suffix, and each
// readout row, like Forward's result, must be bit-identical to the [CLS] row
// of the full-row reference pass over the whole sequence, padding rows
// included, with identical head readouts via ForwardAt. It runs at every
// parityLayers depth.
func TestBatchedForwardMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, layers := range parityLayers {
		enc, head := batchedTestEncoder(50, layers)
		for _, batch := range []int{1, 2, 3, 8} {
			for trial := 0; trial < 8; trial++ {
				pcs := make([]*PrefixCache, batch)
				sufs := make([][]int, batch)
				sufSegs := make([][]int, batch)
				masks := make([][]bool, batch)
				want := make([]*Mat, batch)
				wantPred := make([]float64, batch)
				label := fmt.Sprintf("layers=%d batch=%d", layers, batch)
				for b := range sufs {
					n := 1 + rng.Intn(enc.Cfg.MaxSeqLen)
					tokens, segs, mask := randSeq(rng, n, enc.Cfg.VocabSize, enc.Cfg.Segments)
					p := 1 + rng.Intn(n)
					pcs[b] = enc.EmbedPrefix(tokens[:p], segs[:p])
					sufs[b], sufSegs[b], masks[b] = tokens[p:], segs[p:], mask
					want[b], wantPred[b] = referenceCLS(t, label, enc, head, tokens, segs, mask)
				}
				assertReadoutsBitEqual(t, label, head, enc.BatchedForwardMultiPrefix(pcs, sufs, sufSegs, masks), want, wantPred)
			}
		}
	}
}

// TestBatchedSharedPrefixMatchesPerSequence property-tests the single-lineage
// shape of the packed pass — every sequence reuses one prefix cache, as a
// lineage whose facts all keep the untrimmed query and tuple produces —
// against one full-row reference pass (and one Forward call) per full
// prefix+suffix sequence, including prefix-only sequences, at every
// parityLayers depth. Bit-identical readout rows and head readouts are
// required.
func TestBatchedSharedPrefixMatchesPerSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	prefix := []int{2, 8, 14, 3, 21, 7, 3}
	prefixSeg := []int{0, 0, 0, 0, 1, 1, 1}
	for _, layers := range parityLayers {
		enc, head := batchedTestEncoder(50, layers)
		pc := enc.EmbedPrefix(prefix, prefixSeg)
		p := pc.Len()
		for _, batch := range []int{1, 2, 5, 8} {
			for trial := 0; trial < 4; trial++ {
				pcs := make([]*PrefixCache, batch)
				sufs := make([][]int, batch)
				sufSegs := make([][]int, batch)
				masks := make([][]bool, batch)
				want := make([]*Mat, batch)
				wantPred := make([]float64, batch)
				label := fmt.Sprintf("shared prefix, layers=%d batch=%d", layers, batch)
				for b := range sufs {
					n := rng.Intn(enc.Cfg.MaxSeqLen - p + 1) // 0 = prefix-only sequence
					pcs[b] = pc
					sufs[b] = make([]int, n)
					sufSegs[b] = make([]int, n)
					for i := 0; i < n; i++ {
						sufs[b][i] = rng.Intn(enc.Cfg.VocabSize)
						sufSegs[b][i] = 2
					}
					masks[b] = make([]bool, p+n)
					for i := range masks[b] {
						masks[b][i] = true
					}
					tokens := append(append([]int(nil), prefix...), sufs[b]...)
					segs := append(append([]int(nil), prefixSeg...), sufSegs[b]...)
					want[b], wantPred[b] = referenceCLS(t, label, enc, head, tokens, segs, masks[b])
				}
				assertReadoutsBitEqual(t, label, head, enc.BatchedForwardMultiPrefix(pcs, sufs, sufSegs, masks), want, wantPred)
			}
		}
	}
}

// TestBatchedSharedPrefixZeroAllocs pins the steady-state allocation count
// of a warmed single-lineage packed pass (every sequence shares one prefix)
// plus per-sequence head readouts to exactly zero.
// TestMultiPrefixZeroAllocs covers the cross-lineage shape. Like
// TestEncoderStepZeroAllocs, scripts/ci.sh fails if this test is skipped.
func TestBatchedSharedPrefixZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(53))
	enc, head := batchedTestEncoder(50, 2)
	prefix := []int{2, 8, 14, 3, 21, 3}
	prefixSeg := []int{0, 0, 0, 0, 1, 1}
	pc := enc.EmbedPrefix(prefix, prefixSeg)
	p := pc.Len()
	const batch = 4
	pcs := make([]*PrefixCache, batch)
	sufs := make([][]int, batch)
	sufSegs := make([][]int, batch)
	masks := make([][]bool, batch)
	for b := 0; b < batch; b++ {
		n := 3 + b // mixed lengths: the pool is keyed by size class, not last use
		pcs[b] = pc
		sufs[b], sufSegs[b], _ = randSeq(rng, n, enc.Cfg.VocabSize, enc.Cfg.Segments)
		masks[b] = make([]bool, p+n)
		for i := range masks[b] {
			masks[b][i] = true
		}
	}
	step := func() {
		readout := enc.BatchedForwardMultiPrefix(pcs, sufs, sufSegs, masks)
		for b := 0; b < readout.Rows; b++ {
			head.ForwardAt(readout, b)
		}
	}
	step()
	step() // warm: every scratch shape, view header and offset slice pooled
	allocs := testing.AllocsPerRun(20, step)
	if allocs != 0 {
		t.Errorf("warmed batched pass allocates %v objects/op, want 0", allocs)
	}
}
