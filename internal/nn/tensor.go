// Package nn is a self-contained neural-network substrate: dense matrices,
// layers with explicit forward/backward passes, a BERT-style transformer
// encoder, and the Adam optimizer. It substitutes the paper's
// PyTorch/HuggingFace dependency (see DESIGN.md): the same pre-train /
// fine-tune recipe runs on this encoder, at CPU-friendly scale.
//
// Design notes:
//   - float64 everywhere: model sizes are small enough that memory is not a
//     concern and float64 keeps the finite-difference gradient tests tight.
//   - no autodiff graph: every layer caches what its backward pass needs and
//     implements Backward explicitly, which keeps the substrate small and
//     independently testable.
//   - all randomness flows through an explicit *rand.Rand, so training is
//     reproducible bit-for-bit.
//   - all matrix kernels write into caller-provided storage (the Into family)
//     so a Workspace arena can recycle every scratch matrix; the per-element
//     floating-point accumulation order is frozen — it must match the
//     original allocating kernels bit-for-bit (see kernels_ref_test.go), or
//     the repo-wide worker-parity guarantees break.
package nn

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

func checkMatMulShapes(a, b, out *Mat) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
}

func checkMatMulTShapes(a, b, out *Mat) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmulT out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
}

// AttnScoresSoftmax is the fused masked scaled-dot-product kernel of one
// attention head: out[i][j] = softmax_j(scale · q_i·k_j) over columns with
// mask[j] == true, reading the head slice [off, off+dk) of every q/k row.
// Masked columns receive probability exactly 0 and their key rows are never
// read, which is bit-identical to scoring them -Inf and softmaxing (exp(-Inf)
// contributes +0 to the row sum). q may hold fewer rows than k (a subset of
// the sequence's queries): row i depends only on q_i and the keys, so it is
// the same row either way. mask covers the k.Rows keys; out must be
// q.Rows×k.Rows, and every element is written. A row with no unmasked column
// would be all zeros rather than NaN, but no caller produces one ([CLS] is
// always unmasked).
func AttnScoresSoftmax(q, k *Mat, off, dk int, scale float64, mask []bool, out *Mat) {
	seq := k.Rows
	for i := 0; i < q.Rows; i++ {
		qi := q.Row(i)[off : off+dk]
		row := out.Row(i)
		max := math.Inf(-1)
		for j := 0; j < seq; j++ {
			if !mask[j] {
				row[j] = 0
				continue
			}
			kj := k.Row(j)[off : off+dk]
			s := 0.0
			for t := 0; t < dk; t++ {
				s += qi[t] * kj[t]
			}
			s *= scale
			row[j] = s
			if s > max {
				max = s
			}
		}
		sum := 0.0
		for j := 0; j < seq; j++ {
			if !mask[j] {
				continue
			}
			e := math.Exp(row[j] - max)
			row[j] = e
			sum += e
		}
		for j := 0; j < seq; j++ {
			if mask[j] {
				row[j] /= sum
			}
		}
	}
}

// AddInPlace adds o to m element-wise.
func (m *Mat) AddInPlace(o *Mat) {
	for i := range m.Data {
		m.Data[i] += o.Data[i]
	}
}
