package nn

// Batched training: BatchedForwardTrain packs B sequences into one [ΣT×Dim]
// matrix exactly like the inference-only BatchedForwardMultiPrefix, but
// retains every cache the backward pass needs; BatchedBackward then
// backpropagates through the packed representation. The perf shape mirrors
// the forward pass — every dL/dx stage is row-local and runs as a few large
// GEMMs, while attention's score/softmax backward runs per sequence on
// Workspace.View row windows.
//
// Bit-identity with the per-sample replica path (one Forward+Backward per
// sample on a CloneForWorker replica, merged via Params.AddGradsFrom in slot
// order) is structural:
//
//   - activations: the packed forward is bit-identical per row to B single
//     Forward calls (the packed-inference property), so every sublayer
//     cache window equals the replica's cache bitwise;
//   - dL/dx: every gradient-to-input stage (LayerNorm dx, GELU, grad·Wᵀ,
//     residual adds, attention's per-sequence loops) computes each packed row
//     with exactly the per-sample arithmetic, so the gradient flowing down is
//     bit-identical per row by induction;
//   - parameter gradients: row reductions (xᵀ·grad, bias/gain/bias sums,
//     embedding scatters) are NOT packable — summing across the packed matrix
//     would regroup the floats. Each is computed per sequence (the replica's
//     exact chain) and accumulated into Param.G in slot order b = 0, 1, …,
//     which is the exact order AddGradsFrom merges replica totals. Adding a
//     sequence total t directly is bit-identical to the replica's 0+t-then-add
//     because a float accumulation chain starting at +0 can never produce -0
//     (x+y is -0 under round-to-nearest only when both operands are -0), so
//     the left operand never distinguishes t from 0+t.
//
// TestBatchedTrainStepMatchesReplicaPath pins the property per step across
// batch sizes and lengths; core's
// TestTrainBatchedParity pins it end-to-end (final weights and report curves).

// BatchedForwardTrain encodes B sequences in one packed pass with backward
// caches retained, returning the packed hidden states [ΣT×Dim] and the
// per-sequence row offsets (both encoder scratch, valid until the next
// forward). tokens/segments/masks must stay untouched by the caller until
// BatchedBackward returns: the backward pass reads them for the embedding
// scatter and the per-sequence attention windows.
func (e *Encoder) BatchedForwardTrain(tokens, segments [][]int, masks [][]bool) (*Mat, []int) {
	total := 0
	e.batchOffs, e.batchLens = e.batchOffs[:0], e.batchLens[:0]
	for b := range tokens {
		if len(tokens[b]) > e.Cfg.MaxSeqLen {
			panic("nn: sequence exceeds MaxSeqLen")
		}
		e.batchOffs = append(e.batchOffs, total)
		e.batchLens = append(e.batchLens, len(tokens[b]))
		total += len(tokens[b])
	}
	if total == 0 {
		panic("nn: empty batch")
	}
	e.mForward.Add(int64(len(tokens)))
	e.mTokens.Add(int64(total))
	e.mBatchTrain.Add(1)
	e.ws.Reset()
	e.tokens, e.segments = nil, nil // single-sequence Backward is invalid after a packed pass
	e.batchTokens, e.batchSegments, e.batchMasks = tokens, segments, masks
	e.batchTrain = true
	x := e.ws.Get(total, e.Cfg.Dim)
	for b := range tokens {
		e.embedRowsAt(x, e.batchOffs[b], tokens[b], segments[b], 0)
	}
	x = e.embLN.Forward(e.ws, x)
	for _, l := range e.layers {
		h := l.attn.BatchedForwardTrain(e.ws, x, e.batchOffs, e.batchLens, masks)
		h.AddInPlace(x)
		x = l.ln1.Forward(e.ws, h)
		f := l.ffn.Forward(e.ws, x)
		f.AddInPlace(x)
		x = l.ln2.Forward(e.ws, f)
	}
	return x, e.batchOffs
}

// BatchedBackward accumulates gradients for the whole encoder from the packed
// dL/dHidden of the last BatchedForwardTrain. Gradients land in the encoder's
// Param.G accumulators bit-identically to running Backward per sample on
// replicas and merging them in slot order.
func (e *Encoder) BatchedBackward(grad *Mat) {
	if !e.batchTrain {
		panic("nn: BatchedBackward without a preceding BatchedForwardTrain")
	}
	e.mBackward.Add(int64(len(e.batchOffs))) // counter parity with B per-sample passes
	offs, lens := e.batchOffs, e.batchLens
	for li := len(e.layers) - 1; li >= 0; li-- {
		l := e.layers[li]
		g := l.ln2.BatchedBackward(e.ws, grad, offs, lens)
		gf := l.ffn.BatchedBackward(e.ws, g, offs, lens)
		gf.AddInPlace(g) // residual
		g = l.ln1.BatchedBackward(e.ws, gf, offs, lens)
		ga := l.attn.BatchedBackward(e.ws, g, offs, lens, e.batchMasks)
		ga.AddInPlace(g) // residual
		grad = ga
	}
	grad = e.embLN.BatchedBackward(e.ws, grad, offs, lens)
	e.batchedEmbedBackward(grad)
}

// batchedEmbedBackward scatters the packed post-embedding gradient into the
// token/position/segment embedding accumulators, per sequence in slot order.
// Token and segment rows can be hit by several sequences (and several times
// within one), so scattering the packed rows directly would interleave
// contributions across sequences; instead each sequence's contribution is
// staged densely (tokStage rows tracked by a touched list so clearing stays
// O(seq)) and folded into G as one total per sequence — the replica chain.
// Position rows are unique within a sequence, so they take the direct path.
func (e *Encoder) batchedEmbedBackward(grad *Mat) {
	d := e.Cfg.Dim
	if e.tokStage == nil {
		e.tokStage = make([]float64, e.Cfg.VocabSize*d)
		e.tokMark = make([]bool, e.Cfg.VocabSize)
		e.tokTouched = make([]int, 0, e.Cfg.MaxSeqLen)
		e.segStage = make([]float64, e.Cfg.Segments*d)
	}
	for b := range e.batchOffs {
		tokens, segments := e.batchTokens[b], e.batchSegments[b]
		ro := e.batchOffs[b]
		clear(e.segStage)
		for i := range tokens {
			row := grad.Row(ro + i)
			tid := tokens[i]
			if !e.tokMark[tid] {
				e.tokMark[tid] = true
				e.tokTouched = append(e.tokTouched, tid)
			}
			tok := e.tokStage[tid*d : (tid+1)*d]
			pos := e.posEmb.G[i*d : (i+1)*d]
			seg := e.segStage[segments[i]*d : (segments[i]+1)*d]
			for j := 0; j < d; j++ {
				tok[j] += row[j]
				pos[j] += row[j]
				seg[j] += row[j]
			}
		}
		for _, tid := range e.tokTouched {
			stage := e.tokStage[tid*d : (tid+1)*d]
			acc := e.tokEmb.G[tid*d : (tid+1)*d]
			for j := 0; j < d; j++ {
				acc[j] += stage[j]
				stage[j] = 0
			}
			e.tokMark[tid] = false
		}
		e.tokTouched = e.tokTouched[:0]
		// Segment rows not touched by this sequence carry exact +0 totals;
		// adding them is a bitwise no-op (G accumulators are never -0), which
		// keeps the merge branch-free.
		for j, g := range e.segStage {
			e.segEmb.G[j] += g
		}
	}
}

// BatchedStep runs one packed training step: BatchedForwardTrain, the
// caller's loss-gradient fill over a zeroed packed [ΣT×Dim] gradient (write
// sequence b's dL/dHidden into rows [offs[b], offs[b]+len(tokens[b]))), then
// BatchedBackward. A warmed step — same shapes as a previous call — performs
// zero heap allocations (TestBatchedTrainStepZeroAllocs).
func (e *Encoder) BatchedStep(tokens, segments [][]int, masks [][]bool, fillGrad func(hidden *Mat, offs []int, grad *Mat)) {
	hidden, offs := e.BatchedForwardTrain(tokens, segments, masks)
	grad := e.ws.Get(hidden.Rows, hidden.Cols)
	fillGrad(hidden, offs, grad)
	e.BatchedBackward(grad)
}
