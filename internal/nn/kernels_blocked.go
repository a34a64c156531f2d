package nn

// Blocked kernels (see DESIGN.md "Kernels"): register-blocked variants of the
// three GEMM kernels. The warmed encoder step is 0 allocs/op, so the remaining
// inference cost is pure arithmetic and memory traffic — these kernels attack
// exactly that, while staying **bit-identical** to the reference kernels in
// kernels_ref_test.go:
//
//   - Register blocking fuses up to four k-steps into one pass over an output
//     row: instead of loading and storing out[i][j] once per k (the reference
//     kernels' memory traffic), a fused pass computes
//
//	o := out[i][j]; o += a0·b0[j]; o += a1·b1[j]; o += a2·b2[j]; o += a3·b3[j]
//
//     keeping the partial sum in a register across four k-steps. Each addition
//     happens separately and in increasing-k order, so the floating-point
//     accumulation chain of every output element is exactly the reference
//     kernel's — fusing changes *when* memory is touched, never *what* is
//     added in which order. The same holds for the a·bᵀ kernel, which computes
//     four independent dot products per pass over a's row (each accumulator
//     its own in-order k-chain).
//
//   - The av == 0 skip branches are preserved verbatim: a fused group is
//     formed from the *non-zero* k-steps in order (a·b), or degrades to
//     per-k updates when a group mixes zeros (aᵀ·b), so the blocked kernels
//     skip exactly the terms the reference kernels skip. (Skipping is not
//     equivalent to adding a zero term in IEEE arithmetic — 0·±Inf is NaN and
//     -0 sums differ — so the branch is load-bearing for bit-identity.)
//
// The reference kernels live in kernels_ref_test.go as the property-test
// oracle (kernels_blocked_test.go proves bit-identity across shapes and zero
// patterns, exactly as kernels_ref_test.go does for the allocating originals
// one tier further down). Every Linear layer runs on these kernels.

// blockedK is the register-blocking depth: fused k-steps per output-row pass.
const blockedK = 4

// MatMulBlockedInto computes out = a·b exactly like MatMulInto — bit-identical
// for every shape and zero pattern — with register-blocked loops. out must be
// a.Rows×b.Cols and must not alias a or b.
func MatMulBlockedInto(a, b, out *Mat) {
	checkMatMulShapes(a, b, out)
	if b.Cols == 0 {
		return // the fused loops assume a non-empty output row
	}
	for i := 0; i < a.Rows; i++ {
		matMulRowBlocked(a, b, out, i)
	}
}

// matMulRowBlocked computes output row i of a·b: the non-zero k-steps are
// gathered in increasing order and applied in fused groups of blockedK, so
// each output element's addition chain is exactly the reference kernel's
// (k-major, zeros skipped).
func matMulRowBlocked(a, b, out *Mat, i int) {
	arow := a.Row(i)
	orow := out.Row(i)
	clear(orow)
	var av [blockedK]float64
	var br [blockedK][]float64
	n := 0
	for k, v := range arow {
		if v == 0 {
			continue
		}
		av[n] = v
		br[n] = b.Row(k)
		n++
		if n == blockedK {
			fusedAxpy4(orow, &av, &br)
			n = 0
		}
	}
	// Remainder group (< blockedK non-zero k-steps), still in k-order.
	for g := 0; g < n; g++ {
		axpy(orow, av[g], br[g])
	}
}

// fusedAxpy4 applies four in-order axpy updates in one pass over the output
// row. The partial sum stays in a register across the four additions; the
// additions themselves are sequential and separate, preserving the reference
// accumulation chain bit-for-bit.
func fusedAxpy4(orow []float64, av *[blockedK]float64, br *[blockedK][]float64) {
	a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
	b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
	_ = b0[len(orow)-1] // bounds-check hints for the fused loop
	_ = b1[len(orow)-1]
	_ = b2[len(orow)-1]
	_ = b3[len(orow)-1]
	for j := range orow {
		o := orow[j]
		o += a0 * b0[j]
		o += a1 * b1[j]
		o += a2 * b2[j]
		o += a3 * b3[j]
		orow[j] = o
	}
}

// axpy adds v·brow to orow element-wise (one reference k-step).
func axpy(orow []float64, v float64, brow []float64) {
	_ = brow[len(orow)-1]
	for j := range orow {
		orow[j] += v * brow[j]
	}
}

// MatMulTBlockedInto computes out = a·bᵀ exactly like MatMulTInto —
// bit-identical for every shape — with register blocking: four output dot
// products share one pass over a's row, each accumulating its own in-order
// k-chain. out must be a.Rows×b.Rows and must not alias a or b.
func MatMulTBlockedInto(a, b, out *Mat) {
	checkMatMulTShapes(a, b, out)
	for i := 0; i < a.Rows; i++ {
		matMulTRowBlocked(a, b, out, i)
	}
}

// matMulTRowBlocked computes output row i of a·bᵀ with the blocked kernel.
func matMulTRowBlocked(a, b, out *Mat, i int) {
	arow := a.Row(i)
	orow := out.Row(i)
	j := 0
	for ; j+blockedK <= b.Rows; j += blockedK {
		b0, b1, b2, b3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
		var s0, s1, s2, s3 float64
		for k, av := range arow {
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
	}
	for ; j < b.Rows; j++ {
		brow := b.Row(j)
		s := 0.0
		for k := range arow {
			s += arow[k] * brow[k]
		}
		orow[j] = s
	}
}

// TMatMulBlockedInto computes out = aᵀ·b exactly like TMatMulInto —
// bit-identical for every shape and zero pattern — with register-blocked
// loops. k-steps are fused in groups of blockedK when all four a-entries of an
// output row are non-zero; a group that mixes zeros degrades to per-k updates,
// skipping exactly the terms the reference kernel skips, in the same order.
// out must be a.Cols×b.Cols and must not alias a or b.
func TMatMulBlockedInto(a, b, out *Mat) {
	if a.Rows != b.Rows {
		panic("nn: TmatMul shape mismatch")
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic("nn: TmatMul out shape mismatch")
	}
	clear(out.Data)
	if b.Cols == 0 {
		return // the fused loops assume a non-empty output row
	}
	k0 := 0
	for ; k0+blockedK <= a.Rows; k0 += blockedK {
		a0, a1, a2, a3 := a.Row(k0), a.Row(k0+1), a.Row(k0+2), a.Row(k0+3)
		b0, b1, b2, b3 := b.Row(k0), b.Row(k0+1), b.Row(k0+2), b.Row(k0+3)
		for i := 0; i < a.Cols; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			orow := out.Row(i)
			if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
				av := [blockedK]float64{v0, v1, v2, v3}
				br := [blockedK][]float64{b0, b1, b2, b3}
				fusedAxpy4(orow, &av, &br)
				continue
			}
			// Mixed zeros: apply the non-zero k-steps individually, in order —
			// the reference kernel's exact skip pattern.
			if v0 != 0 {
				axpy(orow, v0, b0)
			}
			if v1 != 0 {
				axpy(orow, v1, b1)
			}
			if v2 != 0 {
				axpy(orow, v2, b2)
			}
			if v3 != 0 {
				axpy(orow, v3, b3)
			}
		}
	}
	// Remainder k-steps (< blockedK), reference loop order.
	for ; k0 < a.Rows; k0++ {
		arow := a.Row(k0)
		brow := b.Row(k0)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpy(out.Row(i), av, brow)
		}
	}
}
