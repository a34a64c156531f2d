package nn

import (
	"math"
	"math/rand"
)

// MultiHeadAttention is standard scaled dot-product self-attention with h
// heads over a single sequence [seq×dim]. Padding positions are excluded via
// the mask. Each head's products, forward and backward, run on the blocked
// GEMM kernels over contiguous copies of its columns; only the scale, mask
// and softmax row pass (attnProbs) and its backward (softmaxBackward) are
// loops of their own. All scratch comes from the caller's Workspace.
type MultiHeadAttention struct {
	Dim, Heads int
	dk         int
	Wq, Wk, Wv *Linear
	Wo         *Linear

	// Caches for backward. probs is reused across calls (its *Mat slots are
	// workspace-owned and replaced every forward pass).
	q, k, v *Mat
	probs   []*Mat // per head [queries×seq]
	mask    []bool
}

// NewMultiHeadAttention registers the four projections.
func NewMultiHeadAttention(ps *Params, name string, dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	if dim%heads != 0 {
		panic("nn: dim must be divisible by heads")
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads, dk: dim / heads,
		Wq: NewLinear(ps, name+".q", dim, dim, rng),
		Wk: NewLinear(ps, name+".k", dim, dim, rng),
		Wv: NewLinear(ps, name+".v", dim, dim, rng),
		Wo: NewLinear(ps, name+".o", dim, dim, rng),
	}
}

// Forward computes self-attention over x [seq×dim]; mask[i] = true marks a
// real (non-padding) position.
func (a *MultiHeadAttention) Forward(ws *Workspace, x *Mat, mask []bool) *Mat {
	return a.forwardQueries(ws, x, x, mask)
}

// forwardQueries computes the attention output of the queries xq, which are
// the first xq.Rows rows of the sequence x [seq×dim], over all of x's keys
// and values, and caches what Backward needs. Each output row is the row
// Forward computes for that position: an attention output row depends only
// on its own query row and the sequence's keys and values.
func (a *MultiHeadAttention) forwardQueries(ws *Workspace, xq, x *Mat, mask []bool) *Mat {
	a.mask = mask
	a.q, a.k, a.v = a.Wq.Forward(ws, xq), a.Wk.Forward(ws, x), a.Wv.Forward(ws, x)
	if len(a.probs) != a.Heads {
		a.probs = make([]*Mat, a.Heads)
	}
	concat := ws.Get(xq.Rows, a.Dim)
	a.attend(ws, a.q, a.k, a.v, mask, concat, a.probs)
	return a.Wo.Forward(ws, concat)
}

// attend is the score/softmax/probs·V stage of one sequence: per head, it
// scores the queries q against the keys k with attnProbs and writes the
// probability-weighted sum of v's rows into that head's columns of concat
// [q.Rows×dim]. probs, when non-nil, receives each head's [q.Rows×k.Rows]
// probabilities for the backward pass. The head's columns of q are copied into
// a contiguous [q.Rows×dk] matrix and those of k and v, transposed, into
// [dk×k.Rows] ones, so both products run on the blocked kernels. Against a
// loop that skips zero probabilities, probs·V only adds 0·v terms, which leave
// an accumulator that starts at +0 unchanged (see DESIGN.md §5).
func (a *MultiHeadAttention) attend(ws *Workspace, q, k, v *Mat, mask []bool, concat *Mat, probs []*Mat) {
	scale := 1 / math.Sqrt(float64(a.dk))
	qh, out := ws.Get(q.Rows, a.dk), ws.Get(q.Rows, a.dk)
	kT, vT := ws.Get(a.dk, k.Rows), ws.Get(a.dk, k.Rows)
	var scores *Mat
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		headCols(q, off, qh)
		headColsT(k, off, kT)
		headColsT(v, off, vT)
		if scores == nil || probs != nil {
			scores = ws.Get(q.Rows, k.Rows)
		}
		attnProbs(qh, kT, scale, mask, scores)
		if probs != nil {
			probs[h] = scores
		}
		MatMulTBlockedInto(scores, vT, out)
		setHeadCols(concat, off, out)
	}
}

// attnProbs is one head's masked scaled-dot-product softmax: out[i][j] =
// softmax_j(scale · qh_i·k_j) over the keys with mask[j] == true, where qh
// [nq×dk] holds the head's query columns and kT [dk×seq] its key columns,
// transposed. The dot products are one blocked GEMM; the row pass scales,
// masks and normalizes them. Masked keys get probability exactly +0, which is
// what scoring them -Inf and softmaxing gives (exp(-Inf) adds +0 to the row
// sum). The GEMM skips the terms whose query factor is zero, which a plain dot
// product would add as ±0: no change to a sum that starts at +0. out must be
// nq×seq; every element is written. A row with no unmasked key would be all
// zeros rather than NaN, but no caller produces one ([CLS] is always
// unmasked).
func attnProbs(qh, kT *Mat, scale float64, mask []bool, out *Mat) {
	MatMulBlockedInto(qh, kT, out)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		max := math.Inf(-1)
		for j, s := range row {
			if !mask[j] {
				row[j] = 0
				continue
			}
			s *= scale
			row[j] = s
			if s > max {
				max = s
			}
		}
		sum := 0.0
		for j, s := range row {
			if !mask[j] {
				continue
			}
			e := math.Exp(s - max)
			row[j] = e
			sum += e
		}
		for j := range row {
			if mask[j] {
				row[j] /= sum
			}
		}
	}
}

// Backward propagates gradients through the attention and its projections.
// grad has one row per query of the last forward pass; the result has one
// row per row of that pass's x. When the queries were only x's first rows,
// the result is what a pass over every query computes from a gradient that
// is zero on the other queries: their dq rows, and so their dq·Wqᵀ rows, are
// exactly +0 there, so every row adds dq·Wqᵀ, then dk·Wkᵀ, then dv·Wvᵀ, in
// that pass's order.
func (a *MultiHeadAttention) Backward(ws *Workspace, grad *Mat) *Mat {
	nq, seq := grad.Rows, a.k.Rows
	dq, dk, dv := a.attendBackward(ws, a.Wo.Backward(ws, grad))
	dx := a.Wq.Backward(ws, dq)
	if nq < seq {
		full := ws.Get(seq, a.Dim)
		copy(full.Data, dx.Data) // the queries are x's first rows
		dx = full
	}
	dx.AddInPlace(a.Wk.Backward(ws, dk))
	dx.AddInPlace(a.Wv.Backward(ws, dv))
	return dx
}

// attendBackward is attend's backward pass over the last forward's caches:
// from the gradient on the concatenated head outputs [nq×dim] it computes the
// gradients on q [nq×dim], k and v [seq×dim]. Per head, four blocked GEMMs
// give dProbs = dC·V, dVᵀ = dCᵀ·P, dQ = dS·K and dKᵀ = Qᵀ·dS, where dS is
// softmaxBackward's dScores. Against loops that skip masked keys and zero
// dScores, the kernels add or skip only terms with a zero factor, each ±0, so
// every gradient element is the same (see DESIGN.md §5).
func (a *MultiHeadAttention) attendBackward(ws *Workspace, dConcat *Mat) (dq, dk, dv *Mat) {
	nq, seq := dConcat.Rows, a.k.Rows
	dq, dk, dv = ws.Get(nq, a.Dim), ws.Get(seq, a.Dim), ws.Get(seq, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	qh, dch, dqh := ws.Get(nq, a.dk), ws.Get(nq, a.dk), ws.Get(nq, a.dk)
	kT, vT := ws.Get(a.dk, seq), ws.Get(a.dk, seq)
	dkT, dvT := ws.Get(a.dk, seq), ws.Get(a.dk, seq)
	dS := ws.Get(nq, seq)
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		p := a.probs[h]
		headCols(a.q, off, qh)
		headCols(dConcat, off, dch)
		headColsT(a.k, off, kT)
		headColsT(a.v, off, vT)
		MatMulBlockedInto(dch, vT, dS) // dProbs
		TMatMulBlockedInto(dch, p, dvT)
		softmaxBackward(p, dS, scale)
		MatMulTBlockedInto(dS, kT, dqh)
		TMatMulBlockedInto(qh, dS, dkT)
		setHeadCols(dq, off, dqh)
		setHeadColsT(dk, off, dkT)
		setHeadColsT(dv, off, dvT)
	}
	return dq, dk, dv
}

// softmaxBackward turns dProbs into dScores in place, for one head's
// probabilities p: d_ij = p_ij·(d_ij − Σ_k p_ik·d_ik)·scale. A masked key needs
// no branch: its probability is +0, so its dProbs entry adds ±0 to the row's
// sum and its dScore is ±0, a term the products that read it cannot tell from
// the one a loop skips.
func softmaxBackward(p, d *Mat, scale float64) {
	for i := 0; i < p.Rows; i++ {
		prow, drow := p.Row(i), d.Row(i)
		dot := 0.0
		for j, pv := range prow {
			dot += pv * drow[j]
		}
		for j, pv := range prow {
			drow[j] = pv * (drow[j] - dot) * scale
		}
	}
}

// headCols copies columns [off, off+dst.Cols) of src into dst [src.Rows×dk].
func headCols(src *Mat, off int, dst *Mat) {
	for i := 0; i < src.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[off:off+dst.Cols])
	}
}

// headColsT copies columns [off, off+dst.Rows) of src, transposed, into dst
// [dk×src.Rows].
func headColsT(src *Mat, off int, dst *Mat) {
	for j := 0; j < src.Rows; j++ {
		for t, v := range src.Row(j)[off : off+dst.Rows] {
			dst.Data[t*dst.Cols+j] = v
		}
	}
}

// setHeadCols writes src [dst.Rows×dk] into columns [off, off+dk) of dst.
func setHeadCols(dst *Mat, off int, src *Mat) {
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i)[off:off+src.Cols], src.Row(i))
	}
}

// setHeadColsT writes srcT [dk×dst.Rows], transposed, into columns [off,
// off+dk) of dst.
func setHeadColsT(dst *Mat, off int, srcT *Mat) {
	for j := 0; j < dst.Rows; j++ {
		row := dst.Row(j)[off : off+srcT.Rows]
		for t := range row {
			row[t] = srcT.Data[t*srcT.Cols+j]
		}
	}
}
