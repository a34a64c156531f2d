package nn

import "math"

// Packed inference: BatchedForwardMultiPrefix packs B prefix+suffix sequences
// into one [ΣT×Dim] matrix so the Q/K/V/FFN projections of every layer run as
// a handful of large GEMMs instead of B small ones, while attention is
// applied per sequence on row windows of the packed matrices — sequences
// never attend across each other, which is exactly a block-diagonal attention
// mask without materializing it. The sequences may come from different prefix
// caches (different lineages, different requests), so one pass serves a
// single lineage, a coalesced batch of requests, or one fact at a time alike.
//
// Bit-identity with Forward on each full sequence is structural, not
// numerical luck:
//   - each sequence's prefix rows are copied verbatim from its own cache, and
//     its suffix rows are embedded at the same absolute positions (posOffset =
//     that sequence's prefix length) Forward uses; embeddings and LayerNorm are
//     row-local, so cached prefix rows equal freshly computed ones;
//   - every row-local layer (embedding LayerNorm, Linear bias adds, GELU,
//     residual adds) computes a packed row exactly as it computes the row
//     alone, and the GEMM kernels accumulate each output row independently in
//     k-order (see MatMulBlockedInto), so which rows share a matrix never affects any
//     row's value;
//   - attention runs the exact per-sequence kernel (AttnScoresSoftmax plus
//     the probs·V accumulation of the single-sequence path) on views of the
//     packed Q/K/V, with each sequence's own mask.
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
// length. It returns the packed hidden states [ΣT×Dim] and the per-sequence
// row offsets: sequence b's hidden rows start at offsets[b], with its [CLS]
// representation at that row. Both return values are encoder scratch, valid
// until the next forward pass. Inference-only: poisons the Backward caches.
func (e *Encoder) BatchedForwardMultiPrefix(pcs []*PrefixCache, sufTokens, sufSegments [][]int, masks [][]bool) (*Mat, []int) {
	d := e.Cfg.Dim
	total, sufTotal, groups := 0, 0, 0
	e.batchOffs, e.batchLens = e.batchOffs[:0], e.batchLens[:0]
	for b := range sufTokens {
		seq := pcs[b].Len() + len(sufTokens[b])
		if seq > e.Cfg.MaxSeqLen {
			panic("nn: sequence exceeds MaxSeqLen")
		}
		e.batchOffs = append(e.batchOffs, total)
		e.batchLens = append(e.batchLens, seq)
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
	return e.encodeBatch(x, masks), e.batchOffs
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
// states. Everything except attention is row-local and runs directly on the
// packed matrix; attention goes through the per-sequence batched kernel.
func (e *Encoder) encodeBatch(x *Mat, masks [][]bool) *Mat {
	for _, l := range e.layers {
		h := l.attn.BatchedForward(e.ws, x, e.batchOffs, e.batchLens, masks)
		h.AddInPlace(x)
		x = l.ln1.Forward(e.ws, h)
		f := l.ffn.Forward(e.ws, x)
		f.AddInPlace(x)
		x = l.ln2.Forward(e.ws, f)
	}
	return x
}

// BatchedForward computes self-attention over B sequences packed into
// x [ΣT×dim]: the Q/K/V/output projections run on the packed matrix (large
// GEMMs), the score/softmax/probs·V stage runs per sequence on row windows,
// so position i of sequence b attends exactly the keys of sequence b — no
// cross-sequence leakage, bit-identical to Forward on each sequence alone.
// Inference-only: the backward caches are not populated.
func (a *MultiHeadAttention) BatchedForward(ws *Workspace, x *Mat, offs, lens []int, masks [][]bool) *Mat {
	q, k, v := a.Wq.Forward(ws, x), a.Wk.Forward(ws, x), a.Wv.Forward(ws, x)
	concat := ws.Get(x.Rows, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for b := range offs {
		ro, seq := offs[b], lens[b]
		qv, kv := ws.View(q, ro, seq), ws.View(k, ro, seq)
		for h := 0; h < a.Heads; h++ {
			off := h * a.dk
			scores := ws.Get(seq, seq)
			AttnScoresSoftmax(qv, kv, off, a.dk, scale, masks[b], scores)
			for i := 0; i < seq; i++ {
				prow := scores.Row(i)
				crow := concat.Row(ro + i)[off : off+a.dk]
				for j := 0; j < seq; j++ {
					p := prow[j]
					if p == 0 {
						continue
					}
					vj := v.Row(ro + j)[off : off+a.dk]
					for t := 0; t < a.dk; t++ {
						crow[t] += p * vj[t]
					}
				}
			}
		}
	}
	return a.Wo.Forward(ws, concat)
}
