package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestEncoderDeterministicInit(t *testing.T) {
	mk := func() *Encoder {
		ps := &Params{}
		return NewEncoder(Config{VocabSize: 9, MaxSeqLen: 5, Dim: 8, Heads: 2, Layers: 2, FFNHidden: 16},
			ps, rand.New(rand.NewSource(7)))
	}
	a, b := mk(), mk()
	tokens := []int{1, 2, 3}
	segs := []int{0, 1, 1}
	mask := []bool{true, true, true}
	ha, hb := a.Forward(tokens, segs, mask), b.Forward(tokens, segs, mask)
	for i := range ha.Data {
		if ha.Data[i] != hb.Data[i] {
			t.Fatalf("same seed, different output at %d", i)
		}
	}
}

func TestEncoderConfigDefaults(t *testing.T) {
	c := Config{VocabSize: 5, MaxSeqLen: 4, Dim: 8, Heads: 2, Layers: 1}
	c.Validate()
	if c.FFNHidden != 32 {
		t.Errorf("default FFNHidden = %d", c.FFNHidden)
	}
	if c.Segments != 2 {
		t.Errorf("default Segments = %d", c.Segments)
	}
}

func TestEncoderRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Dim % Heads != 0")
		}
	}()
	c := Config{VocabSize: 5, MaxSeqLen: 4, Dim: 10, Heads: 3, Layers: 1}
	c.Validate()
}

func TestEncoderRejectsTooLongSequence(t *testing.T) {
	ps := &Params{}
	enc := NewEncoder(Config{VocabSize: 5, MaxSeqLen: 2, Dim: 4, Heads: 2, Layers: 1},
		ps, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overlong sequence")
		}
	}()
	enc.Forward([]int{1, 2, 3}, []int{0, 0, 0}, []bool{true, true, true})
}

func TestTrainingReducesLossOnEncoderRegression(t *testing.T) {
	// End-to-end sanity: encoder + head fits a small token->score mapping.
	rng := rand.New(rand.NewSource(99))
	ps := &Params{}
	enc := NewEncoder(Config{VocabSize: 12, MaxSeqLen: 6, Dim: 8, Heads: 2, Layers: 1, FFNHidden: 16},
		ps, rng)
	head := NewRegressionHead(ps, "head", 8, rng)
	opt := NewAdam(ps, 5e-3)
	type sample struct {
		tokens []int
		target float64
	}
	var data []sample
	for i := 0; i < 8; i++ {
		data = append(data, sample{
			tokens: []int{2, 5 + i%6, 3 + i%4},
			target: float64(i%4) / 4,
		})
	}
	segs := []int{0, 0, 0}
	mask := []bool{true, true, true}
	lossAt := func() float64 {
		total := 0.0
		for _, s := range data {
			h := enc.Forward(s.tokens, segs, mask)
			p := head.Forward(h)
			total += (p - s.target) * (p - s.target)
		}
		return total / float64(len(data))
	}
	before := lossAt()
	for epoch := 0; epoch < 60; epoch++ {
		for _, s := range data {
			h := enc.Forward(s.tokens, segs, mask)
			p := head.Forward(h)
			g := head.Backward(2 * (p - s.target))
			enc.Backward(g)
		}
		opt.Step(len(data))
	}
	after := lossAt()
	if after > before/4 {
		t.Errorf("loss barely moved: %v -> %v", before, after)
	}
	if math.IsNaN(after) {
		t.Error("training diverged to NaN")
	}
}
