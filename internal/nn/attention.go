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
	// workspace-owned and replaced every Forward).
	q, k, v *Mat
	probs   []*Mat // per head [seq×seq]
	concat  *Mat
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
	seq := x.Rows
	a.mask = mask
	a.q, a.k, a.v = a.Wq.Forward(ws, x), a.Wk.Forward(ws, x), a.Wv.Forward(ws, x)
	if len(a.probs) != a.Heads {
		a.probs = make([]*Mat, a.Heads)
	}
	a.concat = ws.Get(seq, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		scores := ws.Get(seq, seq)
		AttnScoresSoftmax(a.q, a.k, off, a.dk, scale, mask, scores)
		a.probs[h] = scores
		for i := 0; i < seq; i++ {
			prow := scores.Row(i)
			crow := a.concat.Row(i)[off : off+a.dk]
			for j := 0; j < seq; j++ {
				p := prow[j]
				if p == 0 {
					continue
				}
				vj := a.v.Row(j)[off : off+a.dk]
				for t := 0; t < a.dk; t++ {
					crow[t] += p * vj[t]
				}
			}
		}
	}
	return a.Wo.Forward(ws, a.concat)
}

// Backward propagates gradients through the attention and its projections.
func (a *MultiHeadAttention) Backward(ws *Workspace, grad *Mat) *Mat {
	seq := grad.Rows
	dConcat := a.Wo.Backward(ws, grad)
	dq := ws.Get(seq, a.Dim)
	dk := ws.Get(seq, a.Dim)
	dv := ws.Get(seq, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		probs := a.probs[h]
		// dV and dProbs.
		dProbs := ws.Get(seq, seq)
		for i := 0; i < seq; i++ {
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
		for i := 0; i < seq; i++ {
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
	dx.AddInPlace(a.Wk.Backward(ws, dk))
	dx.AddInPlace(a.Wv.Backward(ws, dv))
	return dx
}
