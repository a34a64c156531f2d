package core

import (
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tokenizer"
)

// lineageScorer holds what the facts of one lineage share when scored against
// a fixed (query, tuple) pair. Every fact's sequence starts with the prefix
//
//	[CLS] q [SEP] t [SEP]
//
// so the scorer encodes that prefix through the embedding layer once
// (nn.PrefixCache) and the packed pass runs the transformer blocks per fact,
// with the fact tokens appended as segment 2. Pack's truncation rule
// (tokenizer.FitLengths) may trim the query and tuple when a fact is long,
// and the trimmed lengths are a function of the fact's length; so the scorer
// keeps one prefix cache per trimmed (query, tuple) length pair, built on its
// first fact. Reusing the prefix embedding rows across facts preserves the
// [CLS] output row bit for bit (see DESIGN.md "Memory model & kernels"):
// embeddings and LayerNorm are row-local and the prefix occupies the same
// absolute positions in every sequence that uses it.
type lineageScorer struct {
	m          *Model
	qIDs, tIDs []int // untrimmed query and tuple token IDs

	prefixes []prefixEntry // built lazily, one per trimmed length pair

	lens       []int // reusable FitLengths buffer
	toks, segs []int // reusable prefix assembly buffers

	// Facts scored through the packed pass; resolved once per lineage, nil
	// (no-op) without a live registry.
	mHits *obs.Counter
}

// prefixEntry is the prefix cache of [CLS] q[:qLen] [SEP] t[:tLen] [SEP].
type prefixEntry struct {
	qLen, tLen int
	pc         *nn.PrefixCache
}

func newLineageScorer(m *Model, in Input) *lineageScorer {
	s := &lineageScorer{
		m:     m,
		qIDs:  m.tok.Encode(tokenizer.TokenizeSQL(in.SQL)),
		tIDs:  m.tok.Encode(tokenizer.TokenizeValues(in.TupleValues)),
		lens:  make([]int, 3),
		mHits: obs.Metrics().Counter("core.rank.prefix_hits"),
	}
	n := 1 + len(s.qIDs) + 1 + len(s.tIDs) + 1 // the untrimmed prefix is the longest
	s.toks, s.segs = make([]int, 0, n), make([]int, 0, n)
	return s
}

// fitLengths applies Pack's truncation rule to the lineage's query and tuple
// and a fact of factLen tokens, and returns the three trimmed lengths.
func (s *lineageScorer) fitLengths(factLen int) (qLen, tLen, fLen int) {
	s.lens[0], s.lens[1], s.lens[2] = len(s.qIDs), len(s.tIDs), factLen
	tokenizer.FitLengths(s.m.Cfg.MaxSeqLen, s.lens)
	return s.lens[0], s.lens[1], s.lens[2]
}

// prefix returns the prefix cache of the query trimmed to qLen tokens and the
// tuple trimmed to tLen, encoding it on first use. Pack trims a segment by
// keeping its first tokens, and Encode maps tokens one by one, so trimming
// the encoded IDs gives Pack's IDs.
func (s *lineageScorer) prefix(qLen, tLen int) *nn.PrefixCache {
	for _, p := range s.prefixes {
		if p.qLen == qLen && p.tLen == tLen {
			return p.pc
		}
	}
	toks := append(s.toks[:0], tokenizer.ClsID)
	toks = append(toks, s.qIDs[:qLen]...)
	toks = append(toks, tokenizer.SepID)
	qEnd := len(toks) // [CLS] q [SEP] is segment 0, t [SEP] segment 1
	toks = append(toks, s.tIDs[:tLen]...)
	toks = append(toks, tokenizer.SepID)
	segs := s.segs[:0]
	for i := range toks {
		seg := 0
		if i >= qEnd {
			seg = 1
		}
		segs = append(segs, seg)
	}
	s.toks, s.segs = toks, segs
	pc := s.m.enc.EmbedPrefix(toks, segs)
	s.prefixes = append(s.prefixes, prefixEntry{qLen: qLen, tLen: tLen, pc: pc})
	return pc
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
