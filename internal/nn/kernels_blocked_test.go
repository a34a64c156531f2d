package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the blocked kernel tier: every blocked kernel must be
// bit-identical to its reference kernel (tensor.go) — the same contract
// kernels_ref_test.go enforces between the Into kernels and the allocating
// originals, pushed one tier up. Shapes deliberately straddle the blocking
// parameters: rows/cols/k that are not multiples of blockedK, wide outputs,
// empty outputs, and the 1×N / N×1 degenerate mats.

// blockedShapes are the (m, k, n) cases every blocked-vs-reference comparison
// sweeps: tiny odd shapes, exact multiples of blockedK, one-off remainders,
// degenerate vectors, outputs several hundred columns wide, and outputs with no
// rows or no columns.
var blockedShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 1},
	{1, 1, 9},
	{5, 1, 3},
	{3, 4, 4},
	{4, 4, 8},
	{5, 6, 7},
	{7, 9, 11},
	{8, 8, 8},
	{9, 13, 5},
	{2, 3, 256},
	{3, 5, 257},
	{2, 9, 273},
	{1, 12, 515},
	{0, 5, 3},
	{6, 5, 0},
}

func TestBlockedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, sh := range blockedShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, zeroFrac := range []float64{0, 0.4, 0.9} {
			a := randMatZeros(rng, m, k, zeroFrac)
			b := randMatZeros(rng, k, n, zeroFrac)
			out := dirty(rng, m, n)
			MatMulBlockedInto(a, b, out)
			want := NewMat(m, n)
			MatMulInto(a, b, want)
			assertBitEqual(t, "MatMulBlockedInto", out, want)

			bt := randMatZeros(rng, n, k, zeroFrac)
			out = dirty(rng, m, n)
			MatMulTBlockedInto(a, bt, out)
			want = NewMat(m, n)
			MatMulTInto(a, bt, want)
			assertBitEqual(t, "MatMulTBlockedInto", out, want)

			b2 := randMatZeros(rng, m, n, zeroFrac)
			out = dirty(rng, k, n)
			TMatMulBlockedInto(a, b2, out)
			want = NewMat(k, n)
			TMatMulInto(a, b2, want)
			assertBitEqual(t, "TMatMulBlockedInto", out, want)
		}
	}
}

// TestBlockedKernelsSpecialValues stresses the IEEE edge cases the zero-skip
// branches exist for: ±Inf and huge/denormal magnitudes in b against exact
// zeros in a. Skipping a zero k-step and adding 0·(±Inf) = NaN are different
// results, so any deviation from the reference skip pattern shows up here.
func TestBlockedKernelsSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m, k, n := 5, 9, 6
	a := randMatZeros(rng, m, k, 0.5)
	b := randMatZeros(rng, k, n, 0.1)
	// Sprinkle infinities into rows of b that zero entries of a would touch.
	b.Data[3] = math.Inf(1)
	b.Data[k*n/2] = math.Inf(-1)
	b.Data[k*n-1] = 1e-320 // denormal

	out := dirty(rng, m, n)
	MatMulBlockedInto(a, b, out)
	want := NewMat(m, n)
	MatMulInto(a, b, want)
	assertBitEqual(t, "MatMulBlockedInto/special", out, want)

	b2 := randMatZeros(rng, m, n, 0.1)
	b2.Data[0] = math.Inf(1)
	out = dirty(rng, k, n)
	TMatMulBlockedInto(a, b2, out)
	want = NewMat(k, n)
	TMatMulInto(a, b2, want)
	assertBitEqual(t, "TMatMulBlockedInto/special", out, want)
}

// TestBlockedKernelsMatchSerial pins the kernel property packed inference
// rests on: a blocked GEMM over a packed matrix equals, row for row and bit
// for bit, the same GEMM run serially over each sequence's row window alone —
// packing rows changes which rows share a matrix, never how a row is computed.
func TestBlockedKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	shapes := [][3]int{{1, 5, 4}, {7, 9, 11}, {33, 13, 37}, {96, 32, 128}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMatZeros(rng, m, k, 0.3)
		b := randMatZeros(rng, k, n, 0.3)
		bt := randMatZeros(rng, n, k, 0.3)
		packed := dirty(rng, m, n)
		MatMulBlockedInto(a, b, packed)
		packedT := dirty(rng, m, n)
		MatMulTBlockedInto(a, bt, packedT)
		for lo := 0; lo < m; {
			rows := min(1+rng.Intn(8), m-lo)
			win := &Mat{Rows: rows, Cols: k, Data: a.Data[lo*k : (lo+rows)*k]}
			want := &Mat{Rows: rows, Cols: n, Data: packed.Data[lo*n : (lo+rows)*n]}
			out := dirty(rng, rows, n)
			MatMulBlockedInto(win, b, out)
			assertBitEqual(t, "MatMulBlockedInto(window)", out, want)
			wantT := &Mat{Rows: rows, Cols: n, Data: packedT.Data[lo*n : (lo+rows)*n]}
			out = dirty(rng, rows, n)
			MatMulTBlockedInto(win, bt, out)
			assertBitEqual(t, "MatMulTBlockedInto(window)", out, wantT)
			lo += rows
		}
	}
}

// TestBlockedKernelsZeroAllocs pins the blocked kernels to zero allocations:
// they write into caller storage and keep all blocking state in registers and
// stack arrays, so the warmed-step 0 allocs/op contract survives the re-route
// of every layer through this tier.
func TestBlockedKernelsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(74))
	a := randMatZeros(rng, 96, 32, 0.1)
	b := randMatZeros(rng, 32, 128, 0.1)
	bt := randMatZeros(rng, 128, 32, 0.1)
	out := NewMat(96, 128)
	outT := NewMat(96, 128)
	outG := NewMat(32, 128)
	b2 := randMatZeros(rng, 96, 128, 0.1)

	allocs := testing.AllocsPerRun(10, func() {
		MatMulBlockedInto(a, b, out)
		MatMulTBlockedInto(a, bt, outT)
		TMatMulBlockedInto(a, b2, outG)
	})
	if allocs != 0 {
		t.Fatalf("blocked kernels allocated %v allocs/op, want 0", allocs)
	}
}
