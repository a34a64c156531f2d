package core

import (
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/tokenizer"
)

// Ranking: every lineage fact is scored by the fine-tuned encoder on
// [CLS] q [SEP] t [SEP] f [SEP]. RankOn encodes each (possibly trimmed)
// query and tuple prefix of the lineage once (lineageScorer) and packs every
// fact into nn.BatchedForwardMultiPrefix passes, so a lineage becomes a few
// GEMM passes instead of one small pass per fact; a pass may mix facts of
// different prefixes. Scores are bit-identical to one independent Forward
// pass per fact — packing changes scheduling, never arithmetic (see
// internal/nn/multiprefix.go for the structural argument).

// rankChunk is the number of sequences packed into one encoder pass.
const rankChunk = 8

// factBatcher accumulates one lineage's facts and flushes them in packed
// passes of up to chunk sequences. Slot buffers are reused across chunks;
// queued state holds only owned token slices, mask views of trueMask and
// prefix caches (whose rows are clones), so building another prefix cache —
// which resets the encoder workspace — cannot corrupt a pending chunk.
type factBatcher struct {
	s     *lineageScorer
	out   shapley.Values
	chunk int

	pcs      []*nn.PrefixCache // each queued fact's prefix cache
	ids      []relation.FactID
	sufs     [][]int
	sufSegs  [][]int
	masks    [][]bool
	trueMask []bool // shared all-true backing; masks[i] slices it
	n        int
}

func newFactBatcher(s *lineageScorer, out shapley.Values, chunk int) *factBatcher {
	b := &factBatcher{s: s, out: out, chunk: chunk, trueMask: make([]bool, s.m.Cfg.MaxSeqLen)}
	for i := range b.trueMask {
		b.trueMask[i] = true
	}
	return b
}

// add queues one fact and flushes when the chunk is full.
func (b *factBatcher) add(id relation.FactID, fToks []string) {
	if b.n == len(b.ids) {
		b.pcs = append(b.pcs, nil)
		b.ids = append(b.ids, 0)
		b.sufs = append(b.sufs, nil)
		b.sufSegs = append(b.sufSegs, nil)
		b.masks = append(b.masks, nil)
	}
	qLen, tLen, fLen := b.s.fitLengths(len(fToks))
	pc := b.s.prefix(qLen, tLen)
	b.pcs[b.n], b.ids[b.n] = pc, id
	b.sufs[b.n], b.sufSegs[b.n] = appendFactSuffix(
		b.sufs[b.n][:0], b.sufSegs[b.n][:0], b.s.m.tok, fToks, fLen)
	b.masks[b.n] = b.trueMask[:pc.Len()+len(b.sufs[b.n])]
	b.n++
	if b.n == b.chunk {
		b.flush()
	}
}

// flush encodes the queued facts in one packed pass and writes their scores.
func (b *factBatcher) flush() {
	if b.n == 0 {
		return
	}
	m := b.s.m
	readout := m.enc.BatchedForwardMultiPrefix(b.pcs[:b.n], b.sufs[:b.n], b.sufSegs[:b.n], b.masks[:b.n])
	for i, id := range b.ids[:b.n] {
		b.out[id] = m.shapHead.ForwardAt(readout, i) / m.Cfg.TargetScale
	}
	b.n = 0
}

// rankChunked is RankOn with an explicit chunk size; tests sweep it to prove
// scores do not depend on how facts are packed.
func (m *Model) rankChunked(db *relation.Database, in Input, chunk int) shapley.Values {
	reg := obs.Metrics()
	reg.Counter("core.rank.lineages").Add(1)
	reg.Counter("core.rank.facts").Add(int64(len(in.Lineage)))
	s := newLineageScorer(m, in)
	out := make(shapley.Values, len(in.Lineage))
	b := newFactBatcher(s, out, chunk)
	for _, id := range in.Lineage {
		f := db.Fact(id)
		if f == nil {
			out[id] = 0
			continue
		}
		s.mHits.Add(1)
		b.add(id, tokenizer.TokenizeFact(f))
	}
	b.flush()
	return out
}
