package core

import (
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// Ranking: every lineage fact is scored by the fine-tuned encoder on
// [CLS] q [SEP] t [SEP] f [SEP]. RankManyOn scores SEVERAL lineages in one
// call and packs their fast-path facts into shared encoder passes via
// nn.BatchedForwardMultiPrefix, so a coalesced serving batch becomes a few
// large GEMM passes instead of one small pass per fact; RankOn is the
// one-input case. Each lineage owns its prefix cache and its truncation
// eligibility decisions (lineageScorer.eligibleFactLen), and fallback facts
// run the per-fact reference pass (Model.predictShapley). Scores are
// bit-identical to one independent full-length forward pass per fact —
// packing changes scheduling, never arithmetic (see
// internal/nn/multiprefix.go for the structural argument).

// rankChunk is the number of sequences packed into one encoder pass.
const rankChunk = 8

// multiBatcher accumulates fast-path facts across lineages and flushes them
// in multi-prefix packed passes of up to chunk sequences. Facts are queued in
// input order, so each pass sees lineages as consecutive runs of the same
// cache. Slot buffers are reused across chunks; queued state holds only owned
// token slices, mask views of trueMask, and PrefixCache pointers (whose rows
// are clones), so interleaved fallback passes and prefix builds — both of
// which reset the encoder workspace — cannot corrupt a pending chunk.
type multiBatcher struct {
	m     *Model
	chunk int

	pcs      []*nn.PrefixCache
	ids      []relation.FactID
	outs     []shapley.Values
	sufs     [][]int
	sufSegs  [][]int
	masks    [][]bool
	trueMask []bool // shared all-true backing; masks[i] slices it
	n        int
}

func newMultiBatcher(m *Model, chunk int) *multiBatcher {
	b := &multiBatcher{m: m, chunk: chunk, trueMask: make([]bool, m.Cfg.MaxSeqLen)}
	for i := range b.trueMask {
		b.trueMask[i] = true
	}
	return b
}

// add queues one fast-path fact of lineage s (scattering its score into out)
// and flushes when the chunk is full. The caller has already built s's
// prefix cache.
func (b *multiBatcher) add(s *lineageScorer, out shapley.Values, id relation.FactID, fToks []string, fLen int) {
	if b.n == len(b.ids) {
		b.pcs = append(b.pcs, nil)
		b.ids = append(b.ids, 0)
		b.outs = append(b.outs, nil)
		b.sufs = append(b.sufs, nil)
		b.sufSegs = append(b.sufSegs, nil)
		b.masks = append(b.masks, nil)
	}
	b.pcs[b.n] = s.pc
	b.ids[b.n] = id
	b.outs[b.n] = out
	b.sufs[b.n], b.sufSegs[b.n] = appendFactSuffix(
		b.sufs[b.n][:0], b.sufSegs[b.n][:0], b.m.tok, fToks, fLen)
	b.masks[b.n] = b.trueMask[:s.prefixLen+len(b.sufs[b.n])]
	b.n++
	if b.n == b.chunk {
		b.flush()
	}
}

// flush encodes the queued facts — possibly spanning several lineages — in
// one multi-prefix pass and scatters their scores back to the per-request
// value maps.
func (b *multiBatcher) flush() {
	if b.n == 0 {
		return
	}
	hidden, offs := b.m.enc.BatchedForwardMultiPrefix(b.pcs[:b.n], b.sufs[:b.n], b.sufSegs[:b.n], b.masks[:b.n])
	for i := 0; i < b.n; i++ {
		b.outs[i][b.ids[i]] = b.m.shapHead.ForwardAt(hidden, offs[i]) / b.m.Cfg.TargetScale
		b.pcs[i], b.outs[i] = nil, nil // don't retain request state across calls
	}
	b.n = 0
}

// RankMany ranks many lineages against the training database, packing their
// facts into cross-request encoder passes (see RankManyOn).
func (m *Model) RankMany(ins []Input) []shapley.Values {
	return m.RankManyOn(m.db(), ins)
}

// RankManyOn ranks several lineages whose fact IDs refer to the given
// database. The fast-path facts of ALL inputs share one packing budget:
// chunks of up to rankChunk sequences flush through
// nn.BatchedForwardMultiPrefix regardless of which lineage contributed them,
// so small lineages do not cap GEMM size. out[i] corresponds to ins[i], and
// scores are bit-identical to len(ins) independent RankOn calls.
func (m *Model) RankManyOn(db *relation.Database, ins []Input) []shapley.Values {
	return m.rankMany(db, ins, rankChunk)
}

// rankMany is RankManyOn with an explicit chunk size; tests sweep it to
// prove scores do not depend on how facts are packed.
func (m *Model) rankMany(db *relation.Database, ins []Input, chunk int) []shapley.Values {
	out := make([]shapley.Values, len(ins))
	reg := obs.Metrics()
	mLineages := reg.Counter("core.rank.lineages")
	mFacts := reg.Counter("core.rank.facts")
	b := newMultiBatcher(m, chunk)
	for i, in := range ins {
		s := newLineageScorer(m, in)
		mLineages.Add(1)
		mFacts.Add(int64(len(in.Lineage)))
		out[i] = make(shapley.Values, len(in.Lineage))
		for _, id := range in.Lineage {
			f := db.Fact(id)
			if f == nil {
				out[i][id] = 0
				continue
			}
			fToks := m.tokensForFact(db, id, f)
			fLen, ok := s.eligibleFactLen(fToks)
			if !ok {
				s.mFallbacks.Add(1)
				out[i][id] = m.predictShapley(s.qToks, s.tToks, fToks)
				continue
			}
			s.mHits.Add(1)
			if s.pc == nil {
				s.buildPrefix()
			}
			b.add(s, out[i], id, fToks, fLen)
		}
	}
	b.flush()
	return out
}
