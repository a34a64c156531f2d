package nn

import (
	"math"
	"math/rand"
)

// Linear is a fully connected layer y = xW + b over row vectors.
type Linear struct {
	In, Out int
	W, B    *Param

	w Mat  // reusable header viewing W as [In×Out]
	x *Mat // cached input
}

// NewLinear registers a linear layer with Xavier-style initialization.
func NewLinear(ps *Params, name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, W: ps.New(name+".W", in*out), B: ps.New(name+".b", out)}
	l.W.initNormal(rng, math.Sqrt(2.0/float64(in+out)))
	l.w = Mat{Rows: in, Cols: out, Data: l.W.W}
	return l
}

// Forward computes y = xW + b for x of shape [n×In] into ws scratch.
func (l *Linear) Forward(ws *Workspace, x *Mat) *Mat {
	l.x = x
	y := ws.Get(x.Rows, l.Out)
	MatMulBlockedInto(x, &l.w, y)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += l.B.W[j]
		}
	}
	return y
}

// Backward accumulates parameter gradients and returns dL/dx (ws scratch).
func (l *Linear) Backward(ws *Workspace, grad *Mat) *Mat {
	gw := ws.Get(l.In, l.Out)
	TMatMulBlockedInto(l.x, grad, gw)
	for i, g := range gw.Data {
		l.W.G[i] += g
	}
	for i := 0; i < grad.Rows; i++ {
		for j, g := range grad.Row(i) {
			l.B.G[j] += g
		}
	}
	// dL/dx = grad · Wᵀ.
	dx := ws.Get(grad.Rows, l.In)
	MatMulTBlockedInto(grad, &l.w, dx)
	return dx
}

// LayerNorm normalizes each row to zero mean / unit variance and applies a
// learned gain and bias.
type LayerNorm struct {
	Dim        int
	Gain, Bias *Param
	eps        float64

	x          *Mat
	mean, ivar []float64
	norm       *Mat
}

// NewLayerNorm registers a layer-norm with gain 1 and bias 0. On a worker
// replica the gains are left untouched: they alias the primary's (possibly
// already trained) weights.
func NewLayerNorm(ps *Params, name string, dim int) *LayerNorm {
	ln := &LayerNorm{Dim: dim, Gain: ps.New(name+".g", dim), Bias: ps.New(name+".b", dim), eps: 1e-5}
	if !ln.Gain.shared {
		for i := range ln.Gain.W {
			ln.Gain.W[i] = 1
		}
	}
	return ln
}

// Forward normalizes each row of x [n×Dim] into ws scratch.
func (ln *LayerNorm) Forward(ws *Workspace, x *Mat) *Mat {
	ln.x = x
	ln.mean = ws.Floats(x.Rows)
	ln.ivar = ws.Floats(x.Rows)
	ln.norm = ws.Get(x.Rows, x.Cols)
	out := ws.Get(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mu := 0.0
		for _, v := range row {
			mu += v
		}
		mu /= float64(len(row))
		va := 0.0
		for _, v := range row {
			va += (v - mu) * (v - mu)
		}
		va /= float64(len(row))
		iv := 1 / math.Sqrt(va+ln.eps)
		ln.mean[i], ln.ivar[i] = mu, iv
		nrow, orow := ln.norm.Row(i), out.Row(i)
		for j, v := range row {
			n := (v - mu) * iv
			nrow[j] = n
			orow[j] = n*ln.Gain.W[j] + ln.Bias.W[j]
		}
	}
	return out
}

// Backward accumulates gain/bias gradients and returns dL/dx, computed in
// place: grad is overwritten row by row (each element is read before it is
// written) and returned, so the pass needs no scratch matrix.
func (ln *LayerNorm) Backward(grad *Mat) *Mat {
	d := float64(ln.Dim)
	for i := 0; i < grad.Rows; i++ {
		grow, nrow := grad.Row(i), ln.norm.Row(i)
		var sumG, sumGN float64
		for j := range grow {
			gn := grow[j] * ln.Gain.W[j]
			sumG += gn
			sumGN += gn * nrow[j]
			ln.Gain.G[j] += grow[j] * nrow[j]
			ln.Bias.G[j] += grow[j]
		}
		iv := ln.ivar[i]
		for j := range grow {
			gn := grow[j] * ln.Gain.W[j]
			grow[j] = iv * (gn - sumG/d - nrow[j]*sumGN/d)
		}
	}
	return grad
}

// GELU is the Gaussian error linear unit activation (tanh approximation).
type GELU struct {
	x *Mat
}

const geluC = 0.7978845608028654 // sqrt(2/π)

// Forward applies GELU element-wise into ws scratch.
func (g *GELU) Forward(ws *Workspace, x *Mat) *Mat {
	g.x = x
	out := ws.Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = 0.5 * v * (1 + math.Tanh(geluC*(v+0.044715*v*v*v)))
	}
	return out
}

// Backward returns dL/dx, computed in place over grad (the cached input is a
// separate matrix, so overwriting grad is safe).
func (g *GELU) Backward(grad *Mat) *Mat {
	for i, v := range g.x.Data {
		u := geluC * (v + 0.044715*v*v*v)
		t := math.Tanh(u)
		du := geluC * (1 + 3*0.044715*v*v)
		d := 0.5*(1+t) + 0.5*v*(1-t*t)*du
		grad.Data[i] *= d
	}
	return grad
}

// FFN is the transformer position-wise feed-forward block:
// Linear(d→hidden) → GELU → Linear(hidden→d).
type FFN struct {
	L1, L2 *Linear
	act    GELU
}

// NewFFN registers the two linear layers.
func NewFFN(ps *Params, name string, dim, hidden int, rng *rand.Rand) *FFN {
	return &FFN{
		L1: NewLinear(ps, name+".l1", dim, hidden, rng),
		L2: NewLinear(ps, name+".l2", hidden, dim, rng),
	}
}

// Forward applies the block to x [n×dim].
func (f *FFN) Forward(ws *Workspace, x *Mat) *Mat {
	return f.L2.Forward(ws, f.act.Forward(ws, f.L1.Forward(ws, x)))
}

// Backward returns dL/dx.
func (f *FFN) Backward(ws *Workspace, grad *Mat) *Mat {
	return f.L1.Backward(ws, f.act.Backward(f.L2.Backward(ws, grad)))
}
