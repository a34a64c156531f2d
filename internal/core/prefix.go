package core

import (
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tokenizer"
)

// lineageScorer holds what the facts of one lineage share when scored against
// a fixed (query, tuple) pair. All facts of a lineage share the packed prefix
//
//	[CLS] q [SEP] t [SEP]
//
// so the scorer tokenizes and encodes that prefix once (through the embedding
// layer, via nn.PrefixCache) and the packed pass re-runs only the transformer
// blocks per fact, with the fact tokens appended as segment 2. Two further
// differences from the naive per-fact path, both provably bit-preserving for
// the [CLS] output row (see DESIGN.md "Memory model & kernels"):
//
//   - sequences are not padded to MaxSeqLen: attention masks padded keys out of
//     every softmax and all other layers are row-local, so trailing padding
//     rows never influence row 0;
//   - the prefix embedding rows are reused across facts: embeddings and
//     LayerNorm are row-local and the prefix occupies the same absolute
//     positions in every sequence of the lineage.
//
// The fast path applies only when Pack's truncation rule (tokenizer.FitLengths)
// would leave the query and tuple segments untrimmed; otherwise the fact
// segment is long enough to steal prefix budget, the shared prefix differs per
// fact, and the fact falls back to the reference path (Model.predictShapley) —
// which is the same computation, just without reuse.
type lineageScorer struct {
	m            *Model
	qToks, tToks []string
	qLen, tLen   int

	pc        *nn.PrefixCache // built lazily on the first fast-path fact
	prefixLen int

	lens []int // reusable FitLengths buffer

	// Prefix-reuse effectiveness counters: facts scored through the shared
	// prefix vs. facts that fell back to the reference path because
	// truncation reached into the prefix. Resolved once per lineage; nil
	// (no-op) without a live registry.
	mHits, mFallbacks *obs.Counter
}

func newLineageScorer(m *Model, in Input) *lineageScorer {
	reg := obs.Metrics()
	s := &lineageScorer{
		m:          m,
		qToks:      tokenizer.TokenizeSQL(in.SQL),
		tToks:      tokenizer.TokenizeValues(in.TupleValues),
		lens:       make([]int, 3),
		mHits:      reg.Counter("core.rank.prefix_hits"),
		mFallbacks: reg.Counter("core.rank.prefix_fallbacks"),
	}
	s.qLen, s.tLen = len(s.qToks), len(s.tToks)
	return s
}

// buildPrefix encodes [CLS] q [SEP] t [SEP] through the embedding layer once.
func (s *lineageScorer) buildPrefix() {
	n := 1 + s.qLen + 1 + s.tLen + 1
	tokens := make([]int, 0, n)
	segs := make([]int, 0, n)
	push := func(id, seg int) {
		tokens = append(tokens, id)
		segs = append(segs, seg)
	}
	push(tokenizer.ClsID, 0)
	for _, id := range s.m.tok.Encode(s.qToks) {
		push(id, 0)
	}
	push(tokenizer.SepID, 0)
	for _, id := range s.m.tok.Encode(s.tToks) {
		push(id, 1)
	}
	push(tokenizer.SepID, 1)
	s.pc = s.m.enc.EmbedPrefix(tokens, segs)
	s.prefixLen = len(tokens)
}

// eligibleFactLen decides whether a fact with the given tokens can take the
// shared-prefix fast path and, if so, returns its (possibly trimmed) token
// count.
func (s *lineageScorer) eligibleFactLen(fToks []string) (int, bool) {
	s.lens[0], s.lens[1], s.lens[2] = s.qLen, s.tLen, len(fToks)
	tokenizer.FitLengths(s.m.Cfg.MaxSeqLen, s.lens)
	if s.lens[0] != s.qLen || s.lens[1] != s.tLen {
		// Truncation reached into the shared prefix: the prefix would differ
		// for this fact, so reuse is unsound.
		return 0, false
	}
	return s.lens[2], true
}

// appendFactSuffix encodes a (possibly trimmed) fact token sequence plus the
// trailing [SEP] as segment-2 suffix ids, appending into the given buffers.
func appendFactSuffix(suf, seg []int, tok *tokenizer.Tokenizer, fToks []string, fLen int) ([]int, []int) {
	for _, id := range tok.Encode(fToks[:fLen]) {
		suf = append(suf, id)
		seg = append(seg, 2)
	}
	suf = append(suf, tokenizer.SepID)
	seg = append(seg, 2)
	return suf, seg
}
