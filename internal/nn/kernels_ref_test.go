package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file holds the kernel oracles, which only tests call: the original
// allocating kernels (refMatMul, refMatMulT, refTMatMul, SoftmaxRows), the
// serial Into kernels, which the blocked kernels of kernels_blocked.go must
// match (kernels_blocked_test.go), and attention's per-key loops (refAttend,
// refAttentionBackward), which attention on the blocked kernels must match.
// It property-tests the Into kernels and attention against the originals.
// "Equal" below always means bit-identical (==, not approximately): every tier
// must preserve the exact floating-point accumulation order of the originals,
// or worker-parity guarantees across the repo break.

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

// TestAttnScoresSoftmaxMatchesReference checks attnProbs, attention's
// score-and-softmax step on one head's query columns and transposed key
// columns, against refAttnScores with every key row as a query, with one query
// row (the readout-only last layer's shape), and with a random number of query
// rows in between.
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
				qh, kT := NewMat(nq, dk), NewMat(dk, seq)
				headCols(q, off, qh)
				headColsT(k, off, kT)
				out := dirty(rng, nq, seq)
				attnProbs(qh, kT, scale, mask, out)
				name := fmt.Sprintf("attnProbs %d queries x %d keys", nq, seq)
				assertBitEqual(t, name, out, refAttnScores(q, k, off, dk, scale, mask))
			}
		}
	}
}

// refAttend is attention's score/softmax/probs·V stage as per-key loops: per
// head, the probabilities of refAttnScores, then each query row's
// probability-weighted value rows added into concat, skipping zero
// probabilities. concat must be zero.
func refAttend(a *MultiHeadAttention, q, k, v *Mat, mask []bool, concat *Mat, probs []*Mat) {
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		scores := refAttnScores(q, k, off, a.dk, scale, mask)
		if probs != nil {
			probs[h] = scores
		}
		for i := 0; i < q.Rows; i++ {
			prow := scores.Row(i)
			crow := concat.Row(i)[off : off+a.dk]
			for j, p := range prow {
				if p == 0 {
					continue
				}
				vj := v.Row(j)[off : off+a.dk]
				for t := range crow {
					crow[t] += p * vj[t]
				}
			}
		}
	}
}

// refAttentionBackward is attendBackward as per-key loops over a's caches (q,
// k, v, probs, mask): dProbs and dV skip masked keys, and dQ and dK skip masked
// keys and zero dScores.
func refAttentionBackward(a *MultiHeadAttention, dConcat *Mat) (dq, dk, dv *Mat) {
	nq, seq := dConcat.Rows, a.k.Rows
	dq, dk, dv = NewMat(nq, a.Dim), NewMat(seq, a.Dim), NewMat(seq, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		probs := a.probs[h]
		// dV and dProbs.
		dProbs := NewMat(nq, seq)
		for i := 0; i < nq; i++ {
			dcrow := dConcat.Row(i)[off : off+a.dk]
			prow := probs.Row(i)
			dprow := dProbs.Row(i)
			for j := 0; j < seq; j++ {
				if !a.mask[j] {
					continue
				}
				vj := a.v.Row(j)[off : off+a.dk]
				dvj := dv.Row(j)[off : off+a.dk]
				s := 0.0
				for t := 0; t < a.dk; t++ {
					s += dcrow[t] * vj[t]
					dvj[t] += prow[j] * dcrow[t]
				}
				dprow[j] = s
			}
		}
		// Softmax backward: dScores_ij = p_ij (dProbs_ij - Σ_k p_ik dProbs_ik).
		for i := 0; i < nq; i++ {
			prow := probs.Row(i)
			dprow := dProbs.Row(i)
			dot := 0.0
			for j := 0; j < seq; j++ {
				dot += prow[j] * dprow[j]
			}
			qi := a.q.Row(i)[off : off+a.dk]
			dqi := dq.Row(i)[off : off+a.dk]
			for j := 0; j < seq; j++ {
				if !a.mask[j] {
					continue
				}
				ds := prow[j] * (dprow[j] - dot) * scale
				if ds == 0 {
					continue
				}
				kj := a.k.Row(j)[off : off+a.dk]
				dkj := dk.Row(j)[off : off+a.dk]
				for t := 0; t < a.dk; t++ {
					dqi[t] += ds * kj[t]
					dkj[t] += ds * qi[t]
				}
			}
		}
	}
	return dq, dk, dv
}

// attnOperand is a rows×cols matrix of normal draws with about a fifth of its
// entries exact zeros, half of them -0, and every row scaled by a factor up
// to gap: attention's zero-skip branches see both signed zeros, and with a
// wide gap the scores spread far enough that exp underflows to exactly 0.
func attnOperand(rng *rand.Rand, rows, cols int, gap float64) *Mat {
	m := randMatZeros(rng, rows, cols, 0.2)
	for i := 0; i < rows; i++ {
		f := math.Pow(gap, rng.Float64())
		for j, v := range m.Row(i) {
			switch {
			case v != 0:
				m.Row(i)[j] = v * f
			case rng.Intn(2) == 0:
				m.Row(i)[j] = math.Copysign(0, -1)
			}
		}
	}
	return m
}

// refAttentionLayer runs a's forward pass over the queries xq and keys x with
// refAttend in place of attend, then the backward pass from grad with
// refAttentionBackward in place of attendBackward, and returns the output and
// dx. The projections are a's own.
func refAttentionLayer(a *MultiHeadAttention, ws *Workspace, xq, x *Mat, mask []bool, grad *Mat) (out, dx *Mat) {
	a.mask = mask
	a.q, a.k, a.v = a.Wq.Forward(ws, xq), a.Wk.Forward(ws, x), a.Wv.Forward(ws, x)
	a.probs = make([]*Mat, a.Heads)
	concat := NewMat(xq.Rows, a.Dim)
	refAttend(a, a.q, a.k, a.v, mask, concat, a.probs)
	out = a.Wo.Forward(ws, concat)
	dq, dk, dv := refAttentionBackward(a, a.Wo.Backward(ws, grad))
	dx = NewMat(x.Rows, a.Dim)
	copy(dx.Data, a.Wq.Backward(ws, dq).Data) // the queries are x's first rows
	dx.AddInPlace(a.Wk.Backward(ws, dk))
	dx.AddInPlace(a.Wv.Backward(ws, dv))
	return out, dx
}

// TestAttentionMatchesReference checks attention on the blocked kernels
// against the per-key loops bit for bit, over heads 1–3, dk 1–6, every key row
// as a query, one query row and a random number in between, and masks with
// holes. On operands with exact zeros and -0 and with score gaps wide enough
// that exp underflows to 0, it compares attend's output and probabilities and
// attendBackward's dq, dk and dv. Through the projections, on a layer whose
// Q, K and V have all-zero columns, it compares the forward output, dx and
// every parameter gradient.
func TestAttentionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	underflows := 0
	for trial := 0; trial < 54; trial++ {
		heads, dk := 1+trial%3, 1+(trial/3)%6
		dim := heads * dk
		seq := 2 + rng.Intn(10)
		mask := make([]bool, seq)
		mask[0] = true // [CLS] is always real
		for j := 1; j < seq; j++ {
			mask[j] = rng.Float64() < 0.7
		}
		gap := 1.0
		if trial%2 == 1 {
			gap = 1e4
		}
		seed := rng.Int63()
		a := NewMultiHeadAttention(&Params{}, "attn", dim, heads, rand.New(rand.NewSource(seed)))
		for _, nq := range []int{seq, 1, 1 + rng.Intn(seq)} {
			label := fmt.Sprintf("heads %d dk %d, %d queries x %d keys", heads, dk, nq, seq)
			q, k, v := attnOperand(rng, nq, dim, gap), attnOperand(rng, seq, dim, gap), attnOperand(rng, seq, dim, 1)
			dConcat := attnOperand(rng, nq, dim, 1)

			ws := NewWorkspace()
			concat, probs := dirty(rng, nq, dim), make([]*Mat, heads)
			a.attend(ws, q, k, v, mask, concat, probs)
			wantConcat, wantProbs := NewMat(nq, dim), make([]*Mat, heads)
			refAttend(a, q, k, v, mask, wantConcat, wantProbs)
			assertBitEqual(t, "attend "+label, concat, wantConcat)
			for h := range probs {
				assertBitEqual(t, "probs "+label, probs[h], wantProbs[h])
				for i := 0; i < nq; i++ {
					for j, p := range probs[h].Row(i) {
						if mask[j] && p == 0 {
							underflows++
						}
					}
				}
			}
			a.q, a.k, a.v, a.mask, a.probs = q, k, v, mask, probs
			dq, dk, dv := a.attendBackward(ws, dConcat)
			wantDq, wantDk, wantDv := refAttentionBackward(a, dConcat)
			assertBitEqual(t, "dq "+label, dq, wantDq)
			assertBitEqual(t, "dk "+label, dk, wantDk)
			assertBitEqual(t, "dv "+label, dv, wantDv)

			// The whole layer, on two copies with equal weights.
			ps, refPs := &Params{}, &Params{}
			layer := NewMultiHeadAttention(ps, "attn", dim, heads, rand.New(rand.NewSource(seed)))
			ref := NewMultiHeadAttention(refPs, "attn", dim, heads, rand.New(rand.NewSource(seed)))
			for _, l := range []*MultiHeadAttention{layer, ref} {
				for _, lin := range []*Linear{l.Wq, l.Wk, l.Wv} {
					c := trial % dim // an all-zero output column
					for r := 0; r < lin.In; r++ {
						lin.W.W[r*lin.Out+c] = 0
					}
					lin.B.W[c] = 0
				}
			}
			x := randMatZeros(rng, seq, dim, 0.2)
			xq := &Mat{Rows: nq, Cols: dim, Data: x.Data[:nq*dim]}
			grad := randMatZeros(rng, nq, dim, 0.2)
			ws = NewWorkspace()
			out := layer.forwardQueries(ws, xq, x, mask)
			dx := layer.Backward(ws, grad)
			wantOut, wantDx := refAttentionLayer(ref, NewWorkspace(), xq, x, mask, grad)
			assertBitEqual(t, "forward "+label, out, wantOut)
			assertBitEqual(t, "dx "+label, dx, wantDx)
			for pi, p := range ps.All() {
				g := &Mat{Rows: 1, Cols: len(p.G), Data: p.G}
				want := &Mat{Rows: 1, Cols: len(p.G), Data: refPs.All()[pi].G}
				assertBitEqual(t, "gradient of "+p.Name+" "+label, g, want)
			}
		}
	}
	if underflows == 0 {
		t.Fatal("no probability of an unmasked key underflowed to 0: the wide-gap cases test nothing")
	}
}
