package nn

import (
	"math"
	"math/rand"
)

// MultiHeadAttention is standard scaled dot-product self-attention with h
// heads over a single sequence [seq×dim]. Padding positions are excluded via
// the mask; the score+softmax of each head runs through the fused
// AttnScoresSoftmax kernel. All scratch comes from the caller's Workspace.
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
// scores the queries q against the keys k with AttnScoresSoftmax and adds the
// probability-weighted rows of v into that head's columns of concat
// [q.Rows×dim]. probs, when non-nil, receives each head's [q.Rows×k.Rows]
// probabilities for the backward pass.
func (a *MultiHeadAttention) attend(ws *Workspace, q, k, v *Mat, mask []bool, concat *Mat, probs []*Mat) {
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		scores := ws.Get(q.Rows, k.Rows)
		AttnScoresSoftmax(q, k, off, a.dk, scale, mask, scores)
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

// Backward propagates gradients through the attention and its projections.
// grad has one row per query of the last forward pass; the result has one
// row per row of that pass's x. When the queries were only x's first rows,
// the result is what a pass over every query computes from a gradient that
// is zero on the other queries: their dq rows, and so their dq·Wqᵀ rows, are
// exactly +0 there, so every row adds dq·Wqᵀ, then dk·Wkᵀ, then dv·Wvᵀ, in
// that pass's order.
func (a *MultiHeadAttention) Backward(ws *Workspace, grad *Mat) *Mat {
	nq, seq := grad.Rows, a.k.Rows
	dConcat := a.Wo.Backward(ws, grad)
	dq := ws.Get(nq, a.Dim)
	dk := ws.Get(seq, a.Dim)
	dv := ws.Get(seq, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		probs := a.probs[h]
		// dV and dProbs.
		dProbs := ws.Get(nq, seq)
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
