package nn

import "math/bits"

// Workspace is a per-replica scratch arena for forward/backward activations
// and gradients. It hands out matrices from size-class pools and recycles
// them in bulk at step boundaries, so a warmed-up encoder step (one Forward
// plus one Backward over a previously seen sequence length) performs zero
// heap allocations.
//
// Ownership contract: a Workspace belongs to exactly one network replica (an
// Encoder plus its heads each own one) and is NOT safe for concurrent use —
// concurrency comes from giving every worker its own replica via
// Params.CloneForWorker, which re-runs the constructors and therefore builds
// fresh arenas per worker. Matrices returned by Get stay valid until the next
// Reset; layers may freely cache them between Forward and Backward because
// Reset is only called when a new step begins.
type Workspace struct {
	free  map[int][]*Mat // recycled matrices by size class (see sizeClass)
	taken []*Mat         // matrices handed out since the last Reset

	// Reusable Mat headers for row-range views into packed batched matrices
	// (see View). Headers alias other matrices' storage, so they live outside
	// the data pool: Reset only rewinds viewsUsed.
	views     []*Mat
	viewsUsed int
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace {
	return &Workspace{free: make(map[int][]*Mat)}
}

// sizeClass is the pool key of an n-element matrix: the exponent of the
// smallest power of two holding n elements. Packed passes ask for a different
// row count with almost every chunk, so pooling by exact shape would keep one
// set of matrices per distinct count; size classes bound the pools to a few
// dozen classes at the cost of up to 2x capacity per matrix.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a rows×cols matrix with all elements zero, valid until the next
// Reset. Zeroing (rather than returning dirty storage) keeps pooled matrices
// bit-identical to freshly allocated ones, so accumulation kernels behave the
// same either way.
func (ws *Workspace) Get(rows, cols int) *Mat {
	n := rows * cols
	c := sizeClass(n)
	var m *Mat
	if list := ws.free[c]; len(list) > 0 {
		m = list[len(list)-1]
		ws.free[c] = list[:len(list)-1]
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
		clear(m.Data)
	} else {
		m = &Mat{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<c)}
	}
	ws.taken = append(ws.taken, m)
	return m
}

// Floats returns a zeroed length-n scratch slice with the same lifetime as
// Get results. It is backed by the matrix pool (shape n×1), so warmed-up
// callers allocate nothing.
func (ws *Workspace) Floats(n int) []float64 {
	return ws.Get(n, 1).Data
}

// View returns a Mat header aliasing rows [lo, lo+n) of src — the
// per-sequence window into a packed batched matrix. The header (not the
// data) is workspace-owned scratch with the same lifetime as Get results:
// valid until the next Reset, recycled afterwards, so warmed batched passes
// hand out views without allocating. The view shares src's storage; writes
// through it are writes to src.
func (ws *Workspace) View(src *Mat, lo, n int) *Mat {
	var m *Mat
	if ws.viewsUsed < len(ws.views) {
		m = ws.views[ws.viewsUsed]
	} else {
		m = &Mat{}
		ws.views = append(ws.views, m)
	}
	ws.viewsUsed++
	m.Rows, m.Cols = n, src.Cols
	m.Data = src.Data[lo*src.Cols : (lo+n)*src.Cols]
	return m
}

// Reset recycles every matrix handed out since the previous Reset. All of
// them become invalid to the caller; the backing storage is reused by
// subsequent Gets of the same size class.
func (ws *Workspace) Reset() {
	for _, m := range ws.taken {
		c := sizeClass(cap(m.Data))
		ws.free[c] = append(ws.free[c], m)
	}
	ws.taken = ws.taken[:0]
	for _, v := range ws.views[:ws.viewsUsed] {
		v.Data = nil // views must not pin recycled storage past the step
	}
	ws.viewsUsed = 0
}
