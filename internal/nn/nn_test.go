package nn

import (
	"math"
	"math/rand"
	"testing"
)

// checkGrad compares the analytic gradient of every parameter against central
// finite differences of the provided loss closure. forward() must run the
// full forward+backward pass, accumulating gradients, and return the loss;
// loss() must run forward only.
func checkGrad(t *testing.T, ps *Params, forward func() float64, loss func() float64, tol float64) {
	t.Helper()
	ps.ZeroGrad()
	forward()
	const h = 1e-6
	rng := rand.New(rand.NewSource(1))
	for _, p := range ps.All() {
		// Sample a handful of weights per tensor to keep the test fast.
		for trial := 0; trial < 5 && trial < len(p.W); trial++ {
			i := rng.Intn(len(p.W))
			orig := p.W[i]
			p.W[i] = orig + h
			up := loss()
			p.W[i] = orig - h
			down := loss()
			p.W[i] = orig
			num := (up - down) / (2 * h)
			if diff := math.Abs(num - p.G[i]); diff > tol*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, p.G[i], num)
			}
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// scalarize reduces a matrix to a scalar loss with fixed coefficients and
// returns both the loss and its gradient.
func scalarize(m *Mat) (float64, *Mat) {
	loss := 0.0
	grad := NewMat(m.Rows, m.Cols)
	for i, v := range m.Data {
		c := float64(i%7) - 3
		loss += c * v
		grad.Data[i] = c
	}
	return loss, grad
}

func TestLinearGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := &Params{}
	ws := NewWorkspace()
	l := NewLinear(ps, "lin", 4, 3, rng)
	x := randMat(rng, 5, 4)
	forward := func() float64 {
		ws.Reset()
		y := l.Forward(ws, x)
		loss, grad := scalarize(y)
		l.Backward(ws, grad)
		return loss
	}
	loss := func() float64 {
		ws.Reset()
		y := l.Forward(ws, x)
		v, _ := scalarize(y)
		return v
	}
	checkGrad(t, ps, forward, loss, 1e-5)
}

func TestLinearInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := &Params{}
	l := NewLinear(ps, "lin", 4, 3, rng)
	x := randMat(rng, 2, 4)
	ws := NewWorkspace()
	y := l.Forward(ws, x)
	_, grad := scalarize(y)
	dx := l.Backward(ws, grad)
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up, _ := scalarize(l.Forward(NewWorkspace(), x))
		x.Data[i] = orig - h
		down, _ := scalarize(l.Forward(NewWorkspace(), x))
		x.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-dx.Data[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestLayerNormGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := &Params{}
	ln := NewLayerNorm(ps, "ln", 6)
	ws := NewWorkspace()
	x := randMat(rng, 3, 6)
	forward := func() float64 {
		ws.Reset()
		y := ln.Forward(ws, x)
		loss, grad := scalarize(y)
		ln.Backward(grad)
		return loss
	}
	loss := func() float64 {
		ws.Reset()
		v, _ := scalarize(ln.Forward(ws, x))
		return v
	}
	checkGrad(t, ps, forward, loss, 1e-5)
}

func TestLayerNormInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := &Params{}
	ln := NewLayerNorm(ps, "ln", 5)
	x := randMat(rng, 2, 5)
	y := ln.Forward(NewWorkspace(), x)
	_, grad := scalarize(y)
	dx := ln.Backward(grad)
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up, _ := scalarize(ln.Forward(NewWorkspace(), x))
		x.Data[i] = orig - h
		down, _ := scalarize(ln.Forward(NewWorkspace(), x))
		x.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-dx.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestGELUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var g GELU
	x := randMat(rng, 3, 4)
	y := g.Forward(NewWorkspace(), x)
	_, grad := scalarize(y)
	dx := g.Backward(grad)
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up, _ := scalarize(g.Forward(NewWorkspace(), x))
		x.Data[i] = orig - h
		down, _ := scalarize(g.Forward(NewWorkspace(), x))
		x.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-dx.Data[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestFFNGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := &Params{}
	f := NewFFN(ps, "ffn", 4, 8, rng)
	ws := NewWorkspace()
	x := randMat(rng, 3, 4)
	forward := func() float64 {
		ws.Reset()
		y := f.Forward(ws, x)
		loss, grad := scalarize(y)
		f.Backward(ws, grad)
		return loss
	}
	loss := func() float64 {
		ws.Reset()
		v, _ := scalarize(f.Forward(ws, x))
		return v
	}
	checkGrad(t, ps, forward, loss, 1e-5)
}

func TestAttentionGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := &Params{}
	a := NewMultiHeadAttention(ps, "attn", 8, 2, rng)
	ws := NewWorkspace()
	x := randMat(rng, 5, 8)
	mask := []bool{true, true, true, true, false} // last position padded
	forward := func() float64 {
		ws.Reset()
		y := a.Forward(ws, x, mask)
		loss, grad := scalarize(y)
		a.Backward(ws, grad)
		return loss
	}
	loss := func() float64 {
		ws.Reset()
		v, _ := scalarize(a.Forward(ws, x, mask))
		return v
	}
	checkGrad(t, ps, forward, loss, 1e-4)
}

func TestAttentionPaddingIgnored(t *testing.T) {
	// Changing the content of a padded position must not change the output of
	// unmasked positions.
	rng := rand.New(rand.NewSource(9))
	ps := &Params{}
	a := NewMultiHeadAttention(ps, "attn", 8, 2, rng)
	x := randMat(rng, 4, 8)
	mask := []bool{true, true, true, false}
	y1 := a.Forward(NewWorkspace(), x, mask).Clone()
	for j := 0; j < 8; j++ {
		x.Set(3, j, x.At(3, j)+5)
	}
	y2 := a.Forward(NewWorkspace(), x, mask)
	for i := 0; i < 3; i++ {
		for j := 0; j < 8; j++ {
			// The padded row's Q changes its own output row, but rows 0..2
			// attend only to unmasked keys and must be identical.
			if math.Abs(y1.At(i, j)-y2.At(i, j)) > 1e-12 {
				t.Fatalf("output row %d affected by padding content", i)
			}
		}
	}
}

func TestEncoderGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ps := &Params{}
	enc := NewEncoder(Config{
		VocabSize: 11, MaxSeqLen: 6, Dim: 8, Heads: 2, Layers: 2, FFNHidden: 16,
	}, ps, rng)
	tokens := []int{1, 4, 7, 2, 0}
	segments := []int{0, 0, 1, 1, 0}
	mask := []bool{true, true, true, true, false}
	forward := func() float64 {
		h := enc.Forward(tokens, segments, mask)
		loss, grad := scalarize(h)
		enc.Backward(grad)
		return loss
	}
	loss := func() float64 {
		v, _ := scalarize(enc.Forward(tokens, segments, mask))
		return v
	}
	checkGrad(t, ps, forward, loss, 1e-4)
}

func TestRegressionHeadGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := &Params{}
	enc := NewEncoder(Config{
		VocabSize: 7, MaxSeqLen: 4, Dim: 8, Heads: 2, Layers: 1, FFNHidden: 8,
	}, ps, rng)
	head := NewRegressionHead(ps, "head", 8, rng)
	tokens := []int{1, 2, 3}
	segments := []int{0, 0, 1}
	mask := []bool{true, true, true}
	target := 0.7
	forward := func() float64 {
		h := enc.Forward(tokens, segments, mask)
		pred := head.Forward(h)
		loss := (pred - target) * (pred - target)
		grad := head.Backward(2 * (pred - target))
		enc.Backward(grad)
		return loss
	}
	loss := func() float64 {
		h := enc.Forward(tokens, segments, mask)
		pred := head.Forward(h)
		return (pred - target) * (pred - target)
	}
	checkGrad(t, ps, forward, loss, 1e-4)
}

func TestAdamConvergesOnToyRegression(t *testing.T) {
	// Fit y = 2x1 - x2 + 0.5 with a linear layer.
	rng := rand.New(rand.NewSource(12))
	ps := &Params{}
	l := NewLinear(ps, "lin", 2, 1, rng)
	opt := NewAdam(ps, 0.05)
	var finalLoss float64
	for epoch := 0; epoch < 200; epoch++ {
		total := 0.0
		for b := 0; b < 16; b++ {
			x := randMat(rng, 1, 2)
			y := 2*x.At(0, 0) - x.At(0, 1) + 0.5
			pred := l.Forward(NewWorkspace(), x).At(0, 0)
			diff := pred - y
			total += diff * diff
			l.Backward(NewWorkspace(), &Mat{Rows: 1, Cols: 1, Data: []float64{2 * diff}})
		}
		opt.Step(16)
		finalLoss = total / 16
	}
	if finalLoss > 1e-3 {
		t.Errorf("Adam failed to fit toy regression: loss = %v", finalLoss)
	}
	if math.Abs(l.W.W[0]-2) > 0.05 || math.Abs(l.W.W[1]+1) > 0.05 || math.Abs(l.B.W[0]-0.5) > 0.05 {
		t.Errorf("weights = %v, bias = %v", l.W.W, l.B.W)
	}
}

func TestSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ps := &Params{}
	l := NewLinear(ps, "lin", 3, 3, rng)
	snap := ps.Snapshot()
	orig := append([]float64(nil), l.W.W...)
	for i := range l.W.W {
		l.W.W[i] = 99
	}
	ps.Restore(snap)
	for i := range orig {
		if l.W.W[i] != orig[i] {
			t.Fatalf("restore mismatch at %d", i)
		}
	}
}

func TestAdamGradientClipping(t *testing.T) {
	ps := &Params{}
	p := ps.New("w", 1)
	p.W[0] = 0
	opt := NewAdam(ps, 0.1)
	opt.ClipAt = 1
	p.G[0] = 1e6
	opt.Step(1)
	// With clipping the update magnitude is bounded by ~LR.
	if math.Abs(p.W[0]) > 0.2 {
		t.Errorf("clipped update too large: %v", p.W[0])
	}
	if p.G[0] != 0 {
		t.Error("Step must clear gradients")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := &Mat{Rows: 1, Cols: 3, Data: []float64{1000, 1000, 1000}}
	m.SoftmaxRows()
	for _, v := range m.Data {
		if math.Abs(v-1.0/3.0) > 1e-12 {
			t.Fatalf("softmax overflow handling: %v", m.Data)
		}
	}
	m2 := &Mat{Rows: 1, Cols: 2, Data: []float64{0, math.Inf(-1)}}
	m2.SoftmaxRows()
	if m2.Data[0] != 1 || m2.Data[1] != 0 {
		t.Fatalf("masked softmax = %v", m2.Data)
	}
}
