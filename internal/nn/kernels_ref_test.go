package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file holds the kernel oracles, which only tests call: the original
// allocating kernels (refMatMul, refMatMulT, refTMatMul, SoftmaxRows) and the
// serial Into kernels, which the blocked kernels of kernels_blocked.go must
// match (kernels_blocked_test.go). It property-tests the Into and fused
// kernels against the originals. "Equal" below always means bit-identical
// (==, not approximately): every tier must preserve the exact floating-point
// accumulation order of the originals, or worker-parity guarantees across the
// repo break.

// MatMulInto computes out = a·b, overwriting out entirely. out must be
// a.Rows×b.Cols and must not alias a or b. Rows with zero entries in a are
// skipped exactly like the original allocating kernel, so the accumulation
// order (k-major per output row) is unchanged.
func MatMulInto(a, b, out *Mat) {
	checkMatMulShapes(a, b, out)
	for i := 0; i < a.Rows; i++ {
		matMulRow(a, b, out, i)
	}
}

// matMulRow computes output row i of a·b: clear then k-order accumulation,
// exactly the original kernel's per-row work (rows are independent, so
// clearing row-by-row instead of all at once is bit-identical).
func matMulRow(a, b, out *Mat, i int) {
	arow := a.Row(i)
	orow := out.Row(i)
	clear(orow)
	for k, av := range arow {
		if av == 0 {
			continue
		}
		brow := b.Row(k)
		for j, bv := range brow {
			orow[j] += av * bv
		}
	}
}

// MatMulTInto computes out = a·bᵀ, overwriting out entirely. out must be
// a.Rows×b.Rows and must not alias a or b.
func MatMulTInto(a, b, out *Mat) {
	checkMatMulTShapes(a, b, out)
	for i := 0; i < a.Rows; i++ {
		matMulTRow(a, b, out, i)
	}
}

// matMulTRow computes output row i of a·bᵀ.
func matMulTRow(a, b, out *Mat, i int) {
	arow := a.Row(i)
	orow := out.Row(i)
	for j := 0; j < b.Rows; j++ {
		brow := b.Row(j)
		s := 0.0
		for k := range arow {
			s += arow[k] * brow[k]
		}
		orow[j] = s
	}
}

// TMatMulInto computes out = aᵀ·b, overwriting out entirely. out must be
// a.Cols×b.Cols and must not alias a or b. The zero-skip branch mirrors the
// original allocating kernel.
func TMatMulInto(a, b, out *Mat) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: TmatMul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("nn: TmatMul out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	clear(out.Data)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func (m *Mat) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - max)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// refMatMul is the original allocating a·b kernel, verbatim.
func refMatMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// refMatMulT is the original allocating a·bᵀ kernel, verbatim.
func refMatMulT(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			s := 0.0
			for k := range arow {
				s += arow[k] * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// refTMatMul is the original allocating aᵀ·b kernel, verbatim.
func refTMatMul(a, b *Mat) *Mat {
	out := NewMat(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// randMatZeros fills a matrix with normal draws, forcing a fraction of the
// entries to exactly zero so the av == 0 skip branch is exercised.
func randMatZeros(rng *rand.Rand, rows, cols int, zeroFrac float64) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			m.Data[i] = 0
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// dirty returns a rows×cols matrix pre-filled with garbage, to prove the Into
// kernels overwrite every element rather than accumulate into stale state.
func dirty(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 1e6
	}
	return m
}

func assertBitEqual(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

func TestIntoKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(12)
		k := 1 + rng.Intn(12)
		n := 1 + rng.Intn(12)
		zeroFrac := 0.0
		if trial%2 == 1 {
			zeroFrac = 0.4 // exercise the av == 0 skip branches
		}
		a := randMatZeros(rng, m, k, zeroFrac)
		b := randMatZeros(rng, k, n, zeroFrac)

		out := dirty(rng, m, n)
		MatMulInto(a, b, out)
		assertBitEqual(t, "MatMulInto", out, refMatMul(a, b))

		bt := randMatZeros(rng, n, k, zeroFrac) // a·btᵀ is m×n
		out = dirty(rng, m, n)
		MatMulTInto(a, bt, out)
		assertBitEqual(t, "MatMulTInto", out, refMatMulT(a, bt))

		b2 := randMatZeros(rng, m, n, zeroFrac) // aᵀ·b2 is k×n
		out = dirty(rng, k, n)
		TMatMulInto(a, b2, out)
		assertBitEqual(t, "TMatMulInto", out, refTMatMul(a, b2))
	}
}

func TestIntoKernelsFixedValues(t *testing.T) {
	// Hand-checked values (the former TestMatOps), now against the Into API.
	a := &Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Mat{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c := NewMat(2, 2)
	MatMulInto(a, b, c)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMulInto = %v", c.Data)
		}
	}
	// a·bᵀ where bt is [2×3]: same as MatMul(a, transpose(bt)).
	bt := &Mat{Rows: 2, Cols: 3, Data: []float64{7, 9, 11, 8, 10, 12}}
	d := NewMat(2, 2)
	MatMulTInto(a, bt, d)
	for i := range want {
		if d.Data[i] != want[i] {
			t.Fatalf("MatMulTInto = %v", d.Data)
		}
	}
	// aᵀ·a is symmetric.
	e := NewMat(3, 3)
	TMatMulInto(a, a, e)
	if e.At(0, 1) != e.At(1, 0) {
		t.Fatalf("TMatMulInto = %+v", e)
	}
}

// refAttnScores computes one head's masked attention probabilities the
// pre-fusion way: materialize scaled scores with -Inf on masked columns, then
// softmax each row. It has one row per q row and one column per k row.
func refAttnScores(q, k *Mat, off, dk int, scale float64, mask []bool) *Mat {
	scores := NewMat(q.Rows, k.Rows)
	for i := 0; i < q.Rows; i++ {
		qi := q.Row(i)[off : off+dk]
		for j := 0; j < k.Rows; j++ {
			if !mask[j] {
				scores.Set(i, j, math.Inf(-1))
				continue
			}
			kj := k.Row(j)[off : off+dk]
			s := 0.0
			for t := 0; t < dk; t++ {
				s += qi[t] * kj[t]
			}
			scores.Set(i, j, s*scale)
		}
	}
	scores.SoftmaxRows()
	return scores
}

// TestAttnScoresSoftmaxMatchesReference checks the fused kernel against
// refAttnScores with every key row as a query, with one query row (the
// readout-only last layer's shape), and with a random number of query rows
// in between.
func TestAttnScoresSoftmaxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		seq := 2 + rng.Intn(10)
		heads := 1 + rng.Intn(3)
		dk := 1 + rng.Intn(6)
		dim := heads * dk
		k := randMatZeros(rng, seq, dim, 0.1)
		mask := make([]bool, seq)
		mask[0] = true // [CLS] is always real
		for j := 1; j < seq; j++ {
			mask[j] = rng.Float64() < 0.7
		}
		scale := 1 / math.Sqrt(float64(dk))
		for _, nq := range []int{seq, 1, 1 + rng.Intn(seq)} {
			q := randMatZeros(rng, nq, dim, 0.1)
			for h := 0; h < heads; h++ {
				off := h * dk
				out := dirty(rng, nq, seq)
				AttnScoresSoftmax(q, k, off, dk, scale, mask, out)
				name := fmt.Sprintf("AttnScoresSoftmax %d queries x %d keys", nq, seq)
				assertBitEqual(t, name, out, refAttnScores(q, k, off, dk, scale, mask))
			}
		}
	}
}
