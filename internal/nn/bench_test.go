package nn

import (
	"math/rand"
	"testing"
)

// benchSetup builds an encoder+head at the repo's BaseConfig scale (see
// internal/core) and a full-length sequence, warmed so every scratch shape is
// already pooled. Benchmarks over it must report 0 allocs/op.
func benchSetup() (*Encoder, *RegressionHead, []int, []int, []bool) {
	rng := rand.New(rand.NewSource(30))
	ps := &Params{}
	enc := NewEncoder(Config{
		VocabSize: 4000, MaxSeqLen: 96, Dim: 32, Heads: 4, Layers: 3, FFNHidden: 64, Segments: 3,
	}, ps, rng)
	head := NewRegressionHead(ps, "head", 32, rng)
	seq := 96
	tokens := make([]int, seq)
	segments := make([]int, seq)
	mask := make([]bool, seq)
	for i := range tokens {
		tokens[i] = rng.Intn(4000)
		segments[i] = i % 3
		mask[i] = i < 72 // realistic padding tail
	}
	for i := 0; i < 2; i++ {
		encoderStep(enc, head, tokens, segments, mask)
	}
	return enc, head, tokens, segments, mask
}

// BenchmarkEncoderStep measures one full training step (forward + head +
// backward) with a warmed Workspace. The acceptance gate is 0 allocs/op.
func BenchmarkEncoderStep(b *testing.B) {
	enc, head, tokens, segments, mask := benchSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoderStep(enc, head, tokens, segments, mask)
	}
}

// BenchmarkAttentionStep measures one MultiHeadAttention forward plus backward
// over 76 rows at d=32 with 4 heads (the mean Academic training sequence at
// BaseConfig), with a warmed Workspace. The acceptance gate is 0 allocs/op.
func BenchmarkAttentionStep(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	const seq, dim, heads = 76, 32, 4
	attn := NewMultiHeadAttention(&Params{}, "attn", dim, heads, rng)
	ws := NewWorkspace()
	x := randMatZeros(rng, seq, dim, 0)
	grad := randMatZeros(rng, seq, dim, 0)
	mask := make([]bool, seq)
	for i := range mask {
		mask[i] = true
	}
	step := func() {
		ws.Reset()
		attn.Forward(ws, x, mask)
		attn.Backward(ws, grad)
	}
	for i := 0; i < 2; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkEncoderForward measures inference only (forward + head).
func BenchmarkEncoderForward(b *testing.B) {
	enc, head, tokens, segments, mask := benchSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := enc.Forward(tokens, segments, mask)
		head.Forward(h)
	}
}

// BenchmarkEncoderBatchedForward measures the packed inference pass: 8
// sequences sharing one embedded 40-token prefix encoded per op through one
// set of large GEMMs, plus the 8 head readouts. Compare ns/op against 8×
// BenchmarkEncoderForward for the packing win; allocs/op must stay 0.
func BenchmarkEncoderBatchedForward(b *testing.B) {
	enc, head, tokens, segments, mask := benchSetup()
	const batch, prefix = 8, 40
	pc := enc.EmbedPrefix(tokens[:prefix], segments[:prefix])
	pcs := make([]*PrefixCache, batch)
	sufs := make([][]int, batch)
	sufSegs := make([][]int, batch)
	masks := make([][]bool, batch)
	for i := range sufs {
		pcs[i], sufs[i], sufSegs[i], masks[i] = pc, tokens[prefix:], segments[prefix:], mask
	}
	for i := 0; i < 2; i++ {
		enc.BatchedForwardMultiPrefix(pcs, sufs, sufSegs, masks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readout := enc.BatchedForwardMultiPrefix(pcs, sufs, sufSegs, masks)
		for b := 0; b < readout.Rows; b++ {
			head.ForwardAt(readout, b)
		}
	}
}

// benchMatPair builds one m×k · k×n multiplication with ~10% zeros (the
// sparsity the zero-skip branches see in practice after GELU and padding).
func benchMatPair(rng *rand.Rand, m, k, n int) (*Mat, *Mat, *Mat) {
	a := randMatZeros(rng, m, k, 0.1)
	b := randMatZeros(rng, k, n, 0.1)
	return a, b, NewMat(m, n)
}

// BenchmarkMatMulBlocked compares the reference and blocked GEMM tiers at the
// three shapes every encoder layer actually runs — attention projections
// (T×d · d×d), the FFN expansion (T×d · d×4d) and its contraction — at both
// BaseConfig (d=32) and LargeConfig (d=48) widths. The blocked tier must win
// (or tie) at every shape while staying bit-identical
// (TestBlockedKernelsMatchReference).
func BenchmarkMatMulBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"proj_96x32x32", 96, 32, 32},
		{"ffn_up_96x32x128", 96, 32, 128},
		{"ffn_down_96x128x32", 96, 128, 32},
		{"proj_96x48x48", 96, 48, 48},
		{"ffn_up_96x48x192", 96, 48, 192},
	}
	for _, sh := range shapes {
		a, bm, out := benchMatPair(rng, sh.m, sh.k, sh.n)
		b.Run("ref/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(a, bm, out)
			}
		})
		b.Run("blocked/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulBlockedInto(a, bm, out)
			}
		})
	}
}

// BenchmarkMatMulTBlocked compares the B-transposed GEMM tiers at a
// dot-product shape with head-sized rows (T×dk · (T×dk)ᵀ) and a wider one.
func BenchmarkMatMulTBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"scores_96x8x96", 96, 8, 96},
		{"head_96x32x96", 96, 32, 96},
	}
	for _, sh := range shapes {
		a := randMatZeros(rng, sh.m, sh.k, 0.1)
		bt := randMatZeros(rng, sh.n, sh.k, 0.1)
		out := NewMat(sh.m, sh.n)
		b.Run("ref/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulTInto(a, bt, out)
			}
		})
		b.Run("blocked/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulTBlockedInto(a, bt, out)
			}
		})
	}
}

// BenchmarkTMatMulBlocked compares the A-transposed (weight-gradient) GEMM
// tiers at the Linear backward shapes: (T×d)ᵀ · T×d and the FFN variants.
func BenchmarkTMatMulBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	shapes := []struct {
		name    string
		m, k, n int // out is k×n, inputs are m×k and m×n
	}{
		{"gw_96x32x32", 96, 32, 32},
		{"gw_ffn_96x32x128", 96, 32, 128},
	}
	for _, sh := range shapes {
		a := randMatZeros(rng, sh.m, sh.k, 0.1)
		g := randMatZeros(rng, sh.m, sh.n, 0.1)
		out := NewMat(sh.k, sh.n)
		b.Run("ref/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TMatMulInto(a, g, out)
			}
		})
		b.Run("blocked/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TMatMulBlockedInto(a, g, out)
			}
		})
	}
}
