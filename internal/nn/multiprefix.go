package nn

// Packed inference: BatchedForwardMultiPrefix packs B prefix+suffix sequences
// into one [ΣT×Dim] matrix so the Q/K/V/FFN projections of every layer run as
// a handful of large GEMMs instead of B small ones, while attention is
// applied per sequence on row windows of the packed matrices — sequences
// never attend across each other, which is exactly a block-diagonal attention
// mask without materializing it. The sequences may come from different prefix
// caches (different lineages, or one lineage's facts under different
// truncations), so one pass serves any mix of them.
//
// The pass returns only what a head reads: one readout row per sequence, its
// final [CLS] hidden state. Every layer but the last runs on all rows, because
// the next layer's keys and values need them. The last layer projects K and V
// from all rows but runs Q, the scores and softmax, probs·V, Wo, both
// LayerNorms and the FFN on the B readout rows alone, as Forward does for its
// one sequence.
//
// Bit-identity of each readout row with Forward's [CLS] row, and with row 0
// of a pass that runs every layer on every row, is structural, not numerical
// luck:
//   - each sequence's prefix rows are copied verbatim from its own cache, and
//     its suffix rows are embedded at the same absolute positions (posOffset =
//     that sequence's prefix length) Forward uses; embeddings and LayerNorm are
//     row-local, so cached prefix rows equal freshly computed ones;
//   - every row-local layer (embedding LayerNorm, Linear bias adds, GELU,
//     residual adds) computes a packed row exactly as it computes the row
//     alone, and the GEMM kernels accumulate each output row independently in
//     k-order (see MatMulBlockedInto), so which rows share a matrix — all of a
//     sequence's rows, or only the readout rows of the last layer — never
//     affects any row's value;
//   - attention runs the per-sequence stage Forward runs (attend: the
//     scores GEMM and softmax of attnProbs, then the probs·V GEMM) on views of
//     the packed Q/K/V, with each sequence's own mask; an attention output
//     row depends only on its own query row and the sequence's keys and
//     values, so computing it for the readout row alone gives the same row.
// So a packed pass changes scheduling, never arithmetic.

// PrefixCache holds the embedding-layer output (token+position+segment sums,
// already layer-normalized) of a token prefix that many sequences share. The
// rows depend only on the prefix token/segment IDs and their absolute
// positions — both fixed for a shared prefix — so reusing them across suffix
// variants is bit-identical to recomputing them. The matrix is owned by the
// cache (not workspace scratch) and survives encoder steps.
type PrefixCache struct {
	X *Mat
}

// Len returns the number of cached prefix positions.
func (pc *PrefixCache) Len() int { return pc.X.Rows }

// EmbedPrefix computes the post-embedding-LayerNorm rows of a shared prefix
// once, for reuse across many BatchedForwardMultiPrefix sequences.
// Inference-only: it clobbers the embedding LayerNorm's activation caches, so
// do not interleave with a Forward/Backward training step.
func (e *Encoder) EmbedPrefix(tokens, segments []int) *PrefixCache {
	if len(tokens) > e.Cfg.MaxSeqLen {
		panic("nn: prefix exceeds MaxSeqLen")
	}
	e.ws.Reset()
	x := e.embedRows(tokens, segments)
	return &PrefixCache{X: e.embLN.Forward(e.ws, x).Clone()}
}

// BatchedForwardMultiPrefix encodes B sequences where sequence b is
// pcs[b] + sufTokens[b], the suffix occupying absolute positions from
// pcs[b].Len(). The caches may differ per sequence (repeats are fine and
// copy the same rows twice); masks[b] covers sequence b's full prefix+suffix
// length. It returns the readout rows [B×Dim]: row b is sequence b's final
// [CLS] hidden state, bit-identical to row 0 of Forward over that sequence.
// The matrix is encoder scratch, valid until the next forward pass.
// Inference-only: poisons the Backward caches.
func (e *Encoder) BatchedForwardMultiPrefix(pcs []*PrefixCache, sufTokens, sufSegments [][]int, masks [][]bool) *Mat {
	d := e.Cfg.Dim
	total, sufTotal, groups := 0, 0, 0
	e.batchOffs, e.batchLens = e.batchOffs[:0], e.batchLens[:0]
	e.readOffs, e.readLens = e.readOffs[:0], e.readLens[:0]
	for b := range sufTokens {
		seq := pcs[b].Len() + len(sufTokens[b])
		if seq > e.Cfg.MaxSeqLen {
			panic("nn: sequence exceeds MaxSeqLen")
		}
		e.batchOffs = append(e.batchOffs, total)
		e.batchLens = append(e.batchLens, seq)
		e.readOffs = append(e.readOffs, b)
		e.readLens = append(e.readLens, 1)
		total += seq
		sufTotal += len(sufTokens[b])
		if b == 0 || pcs[b] != pcs[b-1] {
			groups++
		}
	}
	if total == 0 {
		panic("nn: empty batch")
	}
	e.recordMultiBatch(len(sufTokens), sufTotal, groups)
	e.ws.Reset()
	e.tokens, e.segments = nil, nil // poison Backward: inference only
	x := e.ws.Get(total, d)
	if sufTotal > 0 {
		// Embed every suffix into one packed matrix and LayerNorm it in one
		// pass. Each suffix uses its own sequence's prefix length as the
		// position offset; LayerNorm is row-local, so rows from different
		// lineages normalize independently even though they share the pass.
		sufX := e.ws.Get(sufTotal, d)
		off := 0
		for b := range sufTokens {
			e.embedRowsAt(sufX, off, sufTokens[b], sufSegments[b], pcs[b].Len())
			off += len(sufTokens[b])
		}
		sufN := e.embLN.Forward(e.ws, sufX)
		off = 0
		for b := range sufTokens {
			p, n := pcs[b].Len(), len(sufTokens[b])
			copy(x.Data[(e.batchOffs[b]+p)*d:(e.batchOffs[b]+p+n)*d], sufN.Data[off*d:(off+n)*d])
			off += n
		}
	}
	for b := range sufTokens {
		copy(x.Data[e.batchOffs[b]*d:e.batchOffs[b]*d+len(pcs[b].X.Data)], pcs[b].X.Data)
	}
	return e.encodeBatch(x, masks)
}

// recordMultiBatch bumps the packed-pass metrics. seqs is the number of
// packed sequences, tokens the suffix rows actually embedded (prefix rows are
// reused, not re-encoded), prefixes the number of consecutive same-cache runs
// in the batch — i.e. how many distinct lineage groups the pass spanned
// (callers queue facts grouped by lineage, so run-length equals distinct
// prefixes without needing a set).
func (e *Encoder) recordMultiBatch(seqs, tokens, prefixes int) {
	e.mForward.Add(int64(seqs))
	e.mTokens.Add(int64(tokens))
	e.mMBatchPasses.Add(1)
	e.mMBatchSeqs.Add(int64(seqs))
	e.mMBatchPrefixes.Add(int64(prefixes))
	e.hMBatchSize.Observe(float64(seqs))
}

// encodeBatch runs the transformer blocks over the packed post-embedding
// states and returns the readout rows. Everything except attention is
// row-local and runs directly on the packed matrix; attention goes through
// the per-sequence batched kernel. The last layer queries with the readout
// rows alone: its other rows feed no later layer and no head.
func (e *Encoder) encodeBatch(x *Mat, masks [][]bool) *Mat {
	if len(e.layers) == 0 {
		return e.readoutRows(x)
	}
	for i, l := range e.layers {
		xq, qOffs, qLens := x, e.batchOffs, e.batchLens
		if i == len(e.layers)-1 {
			xq, qOffs, qLens = e.readoutRows(x), e.readOffs, e.readLens
		}
		h := l.attn.BatchedForward(e.ws, xq, qOffs, qLens, x, e.batchOffs, e.batchLens, masks)
		h.AddInPlace(xq)
		x = l.ln1.Forward(e.ws, h)
		f := l.ffn.Forward(e.ws, x)
		f.AddInPlace(x)
		x = l.ln2.Forward(e.ws, f)
	}
	return x
}

// readoutRows gathers the first ([CLS]) row of every packed sequence of x
// into a [B×Dim] workspace matrix.
func (e *Encoder) readoutRows(x *Mat) *Mat {
	out := e.ws.Get(len(e.batchOffs), x.Cols)
	for b, off := range e.batchOffs {
		copy(out.Row(b), x.Row(off))
	}
	return out
}

// BatchedForward computes self-attention for B sequences packed into x
// [ΣT×dim]: sequence b's keys and values are rows [offs[b], offs[b]+lens[b])
// of x, and its queries are rows [qOffs[b], qOffs[b]+qLens[b]) of xq, some or
// all of that sequence's rows. The Q/K/V/output projections run on the packed
// matrices (large GEMMs); the score/softmax/probs·V stage runs per sequence on
// row windows, so a query of sequence b attends exactly the keys of sequence
// b — no cross-sequence leakage. The result holds one row per row of xq, each
// bit-identical to that row of Forward on its sequence alone: an attention
// output row depends only on its own query row and the sequence's keys and
// values. Inference-only: the backward caches are not populated.
func (a *MultiHeadAttention) BatchedForward(ws *Workspace, xq *Mat, qOffs, qLens []int, x *Mat, offs, lens []int, masks [][]bool) *Mat {
	q, k, v := a.Wq.Forward(ws, xq), a.Wk.Forward(ws, x), a.Wv.Forward(ws, x)
	concat := ws.Get(xq.Rows, a.Dim)
	for b := range offs {
		ro, seq, qo, nq := offs[b], lens[b], qOffs[b], qLens[b]
		a.attend(ws, ws.View(q, qo, nq), ws.View(k, ro, seq), ws.View(v, ro, seq), masks[b], ws.View(concat, qo, nq), nil)
	}
	return a.Wo.Forward(ws, concat)
}
