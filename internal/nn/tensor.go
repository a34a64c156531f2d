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

import "fmt"

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

// AddInPlace adds o to m element-wise.
func (m *Mat) AddInPlace(o *Mat) {
	for i := range m.Data {
		m.Data[i] += o.Data[i]
	}
}
