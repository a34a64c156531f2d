package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/tokenizer"
)

// caseInputs collects ranking inputs for every labeled case in the corpus.
func caseInputs(c *dataset.Corpus) []Input {
	var ins []Input
	for qi, q := range c.Queries {
		for _, cs := range q.Cases {
			ins = append(ins, Input{
				SQL:         c.Queries[qi].SQL,
				Query:       c.Queries[qi].Query,
				TupleValues: cs.Tuple.Values,
				Lineage:     cs.Tuple.Lineage(),
			})
		}
	}
	return ins
}

// rankOnFull is the reference ranker the golden tests compare against: every
// fact is scored by an independent full-length (padded, no prefix reuse, no
// packing) forward pass.
func (m *Model) rankOnFull(db *relation.Database, in Input) shapley.Values {
	qToks := tokenizer.TokenizeSQL(in.SQL)
	tToks := tokenizer.TokenizeValues(in.TupleValues)
	out := make(shapley.Values, len(in.Lineage))
	for _, id := range in.Lineage {
		f := db.Fact(id)
		if f == nil {
			out[id] = 0
			continue
		}
		out[id] = m.predictShapley(qToks, tToks, tokenizer.TokenizeFact(f))
	}
	return out
}

// assertValuesBitEqual compares two score maps bit for bit.
func assertValuesBitEqual(t *testing.T, label string, got, want shapley.Values) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scored %d facts, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: fact %v missing", label, id)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: fact %v: packed score %v != reference %v (bits %x vs %x)",
				label, id, g, w, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// goldenChunks are the chunk sizes the golden tests sweep: one fact per pass,
// and chunks smaller than, equal to and larger than typical lineages.
var goldenChunks = []int{1, 2, 3, rankChunk, 64}

// rankGolden asserts that rank scores every lineage fact of the corpus
// bit-for-bit like rankOnFull. It returns the live registry's snapshot, so
// callers can check which paths the fixture exercised.
func rankGolden(t *testing.T, cfg ModelConfig, label string,
	rank func(m *Model, db *relation.Database, in Input) shapley.Values) obs.Snapshot {
	t.Helper()
	c, _ := tinyCorpus(t)
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	ins := caseInputs(c)
	if len(ins) == 0 {
		t.Fatal("corpus has no labeled cases")
	}
	run := obs.NewRun("rank-golden-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	for _, in := range ins {
		assertValuesBitEqual(t, label, rank(m, c.DB, in), m.rankOnFull(c.DB, in))
	}
	return run.Reg.Snapshot()
}

// chunkedGolden runs rankGolden for the one-input packed ranker at every
// golden chunk size and returns each chunk size's snapshot.
func chunkedGolden(t *testing.T, cfg ModelConfig) []obs.Snapshot {
	t.Helper()
	var snaps []obs.Snapshot
	for _, chunk := range goldenChunks {
		snaps = append(snaps, rankGolden(t, cfg, fmt.Sprintf("chunk %d", chunk),
			func(m *Model, db *relation.Database, in Input) shapley.Values {
				return m.rankChunked(db, in, chunk)
			}))
	}
	return snaps
}

// TestRankOnPrefixGolden is the golden bit-identity test for ranking: RankOn
// (shared-prefix encoding, trimmed sequences, facts packed into encoder
// passes) must score every lineage fact bit-for-bit identically to rankOnFull
// (independent padded full-length forward passes).
func TestRankOnPrefixGolden(t *testing.T) {
	snap := rankGolden(t, tinyConfig(), "RankOn", (*Model).RankOn)
	if snap.Counters["core.rank.prefix_hits"] == 0 {
		t.Error("prefix fast path never engaged; golden test is vacuous")
	}
}

// TestRankOnPrefixGoldenTruncated repeats the golden comparison with a
// sequence budget small enough that Pack's truncation reaches into the query
// and tuple segments, forcing the per-fact fallback path for some facts.
func TestRankOnPrefixGoldenTruncated(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxSeqLen = 16
	snap := rankGolden(t, cfg, "RankOn", (*Model).RankOn)
	if snap.Counters["core.rank.prefix_fallbacks"] == 0 {
		t.Error("no fact exercised the truncation fallback; lower MaxSeqLen")
	}
}

// TestRankOnBatchedGolden sweeps the chunk size of the one-input packed
// ranker — one fact per pass, and chunks smaller than, equal to and larger
// than typical lineages — and requires every sweep point to match rankOnFull
// bit for bit: how facts are packed never changes a score.
func TestRankOnBatchedGolden(t *testing.T) {
	for i, snap := range chunkedGolden(t, tinyConfig()) {
		if snap.Counters["core.rank.prefix_hits"] == 0 {
			t.Errorf("chunk %d: prefix fast path never engaged; golden test is vacuous", goldenChunks[i])
		}
	}
}

// TestRankOnBatchedTruncated repeats the chunk sweep with a sequence budget
// small enough that truncation reaches the prefix for some facts: the packed
// ranker must take the per-fact fallback on exactly those facts, at every
// chunk size, and still match the padded full-length reference bitwise.
func TestRankOnBatchedTruncated(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxSeqLen = 16
	for i, snap := range chunkedGolden(t, cfg) {
		if snap.Counters["core.rank.prefix_fallbacks"] == 0 {
			t.Errorf("chunk %d: no fact exercised the truncation fallback; lower MaxSeqLen", goldenChunks[i])
		}
	}
}

// TestRankOnReplicaParity checks that worker replicas produce bit-identical
// rankings: replicas share weights but own their workspaces and prefix
// caches.
func TestRankOnReplicaParity(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	rep := m.CloneForWorker()
	for _, in := range caseInputs(c)[:4] {
		assertValuesBitEqual(t, "replica", rep.RankOn(c.DB, in), m.RankOn(c.DB, in))
	}
}

// TestEligibilityExactBudgetEdges pins fast-path eligibility at the exact
// sequence budget — where a fact flips from prefix reuse to the per-fact
// fallback: a fact that exactly fills the budget (or overflows while being
// the longest segment, so only the fact is trimmed) stays on the fast path;
// one token of overflow with the query or tuple longest reaches into the
// prefix and forces the fallback.
func TestEligibilityExactBudgetEdges(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	budget := cfg.MaxSeqLen - 4 // CLS + three SEPs around (q, t, f)
	cases := []struct {
		name       string
		qLen, tLen int
		factLen    int
		wantLen    int
		wantOK     bool
	}{
		{"fact exactly fills", 6, 4, budget - 10, budget - 10, true},
		{"fact overflows by one, fact longest", 6, 4, budget - 9, budget - 10, true},
		{"query longest on overflow", budget - 14, 4, 11, 0, false},
		{"tuple longest on overflow", 4, budget - 14, 11, 0, false},
	}
	for _, tc := range cases {
		s := &lineageScorer{m: m, qLen: tc.qLen, tLen: tc.tLen, lens: make([]int, 3)}
		fToks := make([]string, tc.factLen)
		fLen, ok := s.eligibleFactLen(fToks)
		if ok != tc.wantOK || (ok && fLen != tc.wantLen) {
			t.Errorf("%s: eligibleFactLen(q=%d t=%d f=%d) = (%d, %v), want (%d, %v)",
				tc.name, tc.qLen, tc.tLen, tc.factLen, fLen, ok, tc.wantLen, tc.wantOK)
		}
	}
}

// TestRankOnBatchedCounterAgreement ranks the same inputs one fact per pass
// and in chunks of 3 under separate live registries and asserts the prefix
// hit/fallback counters agree exactly: chunking changes only how facts are
// packed, never how they are classified. It also pins the packed-pass
// metrics: every fast-path fact flows through a packed pass, so
// nn.mbatch.sequences equals the hit count, and chunks of 3 take fewer
// passes than facts.
func TestRankOnBatchedCounterAgreement(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 44 // tight enough that some facts fall back, some don't
	tok := buildVocabulary(c, cfg)
	ins := caseInputs(c)

	rank := func(chunk int) obs.Snapshot {
		run := obs.NewRun("batch-counter-test", obs.NewRegistry(), nil, nil)
		obs.Install(run)
		defer obs.Uninstall()
		// Built under the live registry so the encoder's nn.mbatch.* handles
		// are resolved against it.
		m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
		for _, in := range ins {
			m.rankChunked(c.DB, in, chunk)
		}
		return run.Reg.Snapshot()
	}

	perFact := rank(1)
	batched := rank(3)
	for _, name := range []string{
		"core.rank.lineages", "core.rank.facts",
		"core.rank.prefix_hits", "core.rank.prefix_fallbacks",
	} {
		if perFact.Counters[name] != batched.Counters[name] {
			t.Errorf("counter %s: chunk 1 %d vs chunk 3 %d",
				name, perFact.Counters[name], batched.Counters[name])
		}
	}
	hits := perFact.Counters["core.rank.prefix_hits"]
	if hits == 0 || perFact.Counters["core.rank.prefix_fallbacks"] == 0 {
		t.Fatalf("fixture must exercise both paths: hits=%d fallbacks=%d",
			hits, perFact.Counters["core.rank.prefix_fallbacks"])
	}
	for label, snap := range map[string]obs.Snapshot{"chunk 1": perFact, "chunk 3": batched} {
		if got := snap.Counters["nn.mbatch.sequences"]; got != hits {
			t.Errorf("%s: nn.mbatch.sequences = %d, want every fast-path fact (%d)", label, got, hits)
		}
	}
	if got := perFact.Counters["nn.mbatch.passes"]; got != hits {
		t.Errorf("chunk 1: nn.mbatch.passes = %d, want one per fast-path fact (%d)", got, hits)
	}
	if got := batched.Counters["nn.mbatch.passes"]; got == 0 || got >= hits {
		t.Errorf("chunk 3: nn.mbatch.passes = %d, want packed passes (0 < passes < %d)", got, hits)
	}
}
