package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullForward is the reference encoder pass that the readout-only paths are
// compared against: every layer runs attention, the FFN and both LayerNorms
// on every row, padding rows included, and it returns all [seq×Dim] final
// hidden states. Scratch comes from ws, which must stay untouched until a
// fullBackward that follows has run. It overwrites the encoder's activation
// caches, so an Encoder.Backward must not follow it.
func fullForward(e *Encoder, ws *Workspace, tokens, segments []int, mask []bool) *Mat {
	x := ws.Get(len(tokens), e.Cfg.Dim)
	e.embedRowsAt(x, 0, tokens, segments, 0)
	x = e.embLN.Forward(ws, x)
	for _, l := range e.layers {
		h := l.attn.Forward(ws, x, mask)
		h.AddInPlace(x)
		x = l.ln1.Forward(ws, h)
		f := l.ffn.Forward(ws, x)
		f.AddInPlace(x)
		x = l.ln2.Forward(ws, f)
	}
	return x
}

// fullBackward is the reference backward pass of fullForward over the same
// sequence: every row of every layer, seeded with dCLS [1×Dim] in row 0 of a
// [seq×Dim] gradient that is zero elsewhere.
func fullBackward(e *Encoder, ws *Workspace, tokens, segments []int, dCLS *Mat) {
	d := e.Cfg.Dim
	grad := ws.Get(len(tokens), d)
	copy(grad.Row(0), dCLS.Row(0))
	for li := len(e.layers) - 1; li >= 0; li-- {
		l := e.layers[li]
		g := l.ln2.Backward(grad)
		gf := l.ffn.Backward(ws, g)
		gf.AddInPlace(g)
		g = l.ln1.Backward(gf)
		ga := l.attn.Backward(ws, g)
		ga.AddInPlace(g)
		grad = ga
	}
	grad = e.embLN.Backward(grad)
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		tok := e.tokEmb.G[tokens[i]*d : (tokens[i]+1)*d]
		pos := e.posEmb.G[i*d : (i+1)*d]
		seg := e.segEmb.G[segments[i]*d : (segments[i]+1)*d]
		for j := 0; j < d; j++ {
			tok[j] += row[j]
			pos[j] += row[j]
			seg[j] += row[j]
		}
	}
}

// referenceCLS returns fullForward over one sequence and the head's
// prediction from its row 0, after checking that Forward returns that row
// bit for bit.
func referenceCLS(t *testing.T, label string, enc *Encoder, head *RegressionHead, tokens, segs []int, mask []bool) (*Mat, float64) {
	t.Helper()
	want := fullForward(enc, NewWorkspace(), tokens, segs, mask)
	got := enc.Forward(tokens, segs, mask)
	if got.Rows != 1 || got.Cols != want.Cols {
		t.Fatalf("%s: Forward returned %dx%d, want 1x%d", label, got.Rows, got.Cols, want.Cols)
	}
	for j, w := range want.Row(0) {
		if math.Float64bits(got.Data[j]) != math.Float64bits(w) {
			t.Fatalf("%s: Forward col %d: %v vs full pass %v", label, j, got.Data[j], w)
		}
	}
	return want, head.Forward(want)
}

// TestBackwardMatchesFullBackward checks that a training step on the
// readout-only last layer accumulates every parameter gradient bit for bit
// like the full-row reference pass over a padded sequence, at every
// parityLayers depth, both on that padded sequence and on the sequence
// without its padding.
func TestBackwardMatchesFullBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, layers := range parityLayers {
		ps := &Params{}
		enc := NewEncoder(Config{
			VocabSize: 60, MaxSeqLen: 24, Dim: 16, Heads: 2, Layers: layers, FFNHidden: 32, Segments: 3,
		}, ps, rng)
		head := NewRegressionHead(ps, "head", 16, rng)
		for trial := 0; trial < 8; trial++ {
			tokens, segs, mask := randSeq(rng, 2+rng.Intn(enc.Cfg.MaxSeqLen-1), enc.Cfg.VocabSize, enc.Cfg.Segments)
			target := rng.NormFloat64()
			ps.ZeroGrad()
			ws := NewWorkspace()
			wantPred := head.Forward(fullForward(enc, ws, tokens, segs, mask))
			fullBackward(enc, ws, tokens, segs, head.Backward(2*(wantPred-target)))
			var want [][]float64
			for _, p := range ps.All() {
				want = append(want, append([]float64(nil), p.G...))
			}
			real := 0
			for real < len(mask) && mask[real] {
				real++
			}
			for _, n := range []int{len(tokens), real} {
				label := fmt.Sprintf("layers=%d trial=%d: %d of %d positions", layers, trial, n, len(tokens))
				ps.ZeroGrad()
				pred := head.Forward(enc.Forward(tokens[:n], segs[:n], mask[:n]))
				if math.Float64bits(pred) != math.Float64bits(wantPred) {
					t.Fatalf("%s: prediction %v vs full pass %v", label, pred, wantPred)
				}
				enc.Backward(head.Backward(2 * (pred - target)))
				for i, p := range ps.All() {
					for j, g := range p.G {
						if math.Float64bits(g) != math.Float64bits(want[i][j]) {
							t.Fatalf("%s: %s gradient %d: %v vs full pass %v", label, p.Name, j, g, want[i][j])
						}
					}
				}
			}
		}
	}
}
