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

// goldenInputs is caseInputs plus a copy of every input whose output tuple
// repeats its values until it is at least as long as the query. Under a tight
// sequence budget such a tuple is trimmed too, so one lineage's facts need
// prefixes that share the trimmed query length and differ in the tuple's.
func goldenInputs(c *dataset.Corpus) []Input {
	base := caseInputs(c)
	ins := append([]Input(nil), base...)
	for _, in := range base {
		q := len(tokenizer.TokenizeSQL(in.SQL))
		wide := in.TupleValues
		for len(wide) > 0 && len(tokenizer.TokenizeValues(wide)) < q {
			wide = append(wide[:len(wide):len(wide)], in.TupleValues...)
		}
		in.TupleValues = wide
		ins = append(ins, in)
	}
	return ins
}

// rankOnFull is the reference ranker the golden tests compare against: every
// fact is scored by an independent Forward pass over its own Pack-ed
// sequence, with no prefix reuse and no packing. That Forward's [CLS] row
// equals the one of a pass over every row of every layer, padded or not, bit
// for bit; internal/nn's reference tests pin that.
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

// predictShapley runs the fine-tuning forward pass for one (q, t, f) triple
// and returns the unscaled prediction.
func (m *Model) predictShapley(queryTokens, tupleTokens, factTokens []string) float64 {
	p := m.tok.Pack(m.Cfg.MaxSeqLen, 3, queryTokens, tupleTokens, factTokens)
	hidden := m.enc.Forward(p.Tokens, p.Segments, p.Mask)
	return m.shapHead.Forward(hidden) / m.Cfg.TargetScale
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

// rankGolden asserts that rank scores every lineage fact of goldenInputs
// bit-for-bit like rankOnFull. It returns the live registry's snapshot, so
// callers can check which paths the fixture exercised.
func rankGolden(t *testing.T, cfg ModelConfig, label string,
	rank func(m *Model, db *relation.Database, in Input) shapley.Values) obs.Snapshot {
	t.Helper()
	c, _ := tinyCorpus(t)
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	ins := goldenInputs(c)
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
// (one independent Forward pass per fact).
func TestRankOnPrefixGolden(t *testing.T) {
	snap := rankGolden(t, tinyConfig(), "RankOn", (*Model).RankOn)
	if snap.Counters["core.rank.prefix_hits"] == 0 {
		t.Error("prefix fast path never engaged; golden test is vacuous")
	}
}

// TestRankOnPrefixGoldenTruncated repeats the golden comparison with a
// sequence budget small enough that Pack's truncation reaches into the query
// and tuple segments for some facts, so those facts run on prefix caches of
// the trimmed query and tuple.
func TestRankOnPrefixGoldenTruncated(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxSeqLen = 16
	requirePrefixTrims(t, cfg)
	rankGolden(t, cfg, "RankOn", (*Model).RankOn)
}

// prefixTrims counts, over ins and under cfg's sequence budget
// (tokenizer.FitLengths), the lineage facts whose sequence trims the query or
// the tuple, all lineage facts, and the lineages whose facts need more than
// one trimmed (query, tuple) length pair, and so more than one prefix cache.
func prefixTrims(db *relation.Database, ins []Input, cfg ModelConfig) (trimmed, facts, mixed int) {
	for _, in := range ins {
		q, tu := len(tokenizer.TokenizeSQL(in.SQL)), len(tokenizer.TokenizeValues(in.TupleValues))
		pairs := map[[2]int]bool{}
		for _, id := range in.Lineage {
			f := db.Fact(id)
			if f == nil {
				continue
			}
			lens := tokenizer.FitLengths(cfg.MaxSeqLen, []int{q, tu, len(tokenizer.TokenizeFact(f))})
			if lens[0] < q || lens[1] < tu {
				trimmed++
			}
			facts++
			pairs[[2]int{lens[0], lens[1]}] = true
		}
		if len(pairs) > 1 {
			mixed++
		}
	}
	return trimmed, facts, mixed
}

// requirePrefixTrims fails the test unless some fixture fact trims the query
// or the tuple under cfg's sequence budget.
func requirePrefixTrims(t *testing.T, cfg ModelConfig) {
	t.Helper()
	c, _ := tinyCorpus(t)
	if trimmed, _, _ := prefixTrims(c.DB, goldenInputs(c), cfg); trimmed == 0 {
		t.Fatalf("MaxSeqLen %d: no fixture fact trims the query or the tuple; lower MaxSeqLen", cfg.MaxSeqLen)
	}
}

// TestRankOnBatchedGolden sweeps the chunk size of the one-input packed
// ranker — one fact per pass, and chunks smaller than, equal to and larger
// than typical lineages — and requires every sweep point to match rankOnFull
// bit for bit: how facts are packed never changes a score. Some fixture
// lineages need more than one prefix cache, so passes mix the caches of one
// lineage.
func TestRankOnBatchedGolden(t *testing.T) {
	cfg := tinyConfig()
	c, _ := tinyCorpus(t)
	if _, _, mixed := prefixTrims(c.DB, goldenInputs(c), cfg); mixed == 0 {
		t.Fatal("no fixture lineage needs more than one prefix cache; golden test does not cover mixed passes")
	}
	for i, snap := range chunkedGolden(t, cfg) {
		if snap.Counters["core.rank.prefix_hits"] == 0 {
			t.Errorf("chunk %d: prefix fast path never engaged; golden test is vacuous", goldenChunks[i])
		}
	}
}

// TestRankOnBatchedTruncated repeats the chunk sweep with a sequence budget
// small enough that truncation reaches the prefix for some facts: the packed
// ranker must score them on prefix caches of the trimmed query and tuple, at
// every chunk size, and still match rankOnFull bitwise.
func TestRankOnBatchedTruncated(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxSeqLen = 16
	requirePrefixTrims(t, cfg)
	chunkedGolden(t, cfg)
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

// TestEligibilityExactBudgetEdges pins the scorer's truncation at the exact
// sequence budget, where a fact starts to trim the query or tuple: a fact
// that exactly fills the budget, one that overflows by one token while being
// the longest segment (only the fact is trimmed), and one token of overflow
// with the query or the tuple longest (the prefix is trimmed). At each edge
// the scorer must pick the (query, tuple, fact) lengths tokenizer.Pack picks.
func TestEligibilityExactBudgetEdges(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	budget := cfg.MaxSeqLen - 4 // CLS + three SEPs around (q, t, f)
	cases := []struct {
		name             string
		qLen, tLen, fLen int
		want             [3]int
	}{
		{"fact exactly fills", 6, 4, budget - 10, [3]int{6, 4, budget - 10}},
		{"fact overflows by one, fact longest", 6, 4, budget - 9, [3]int{6, 4, budget - 10}},
		{"query longest on overflow", budget - 14, 4, 11, [3]int{budget - 15, 4, 11}},
		{"tuple longest on overflow", 4, budget - 14, 11, [3]int{4, budget - 15, 11}},
	}
	words := func(n int) []string { return make([]string, n) }
	for _, tc := range cases {
		p := tok.Pack(cfg.MaxSeqLen, 3, words(tc.qLen), words(tc.tLen), words(tc.fLen))
		var segLen [3]int // real positions per segment, [CLS] and [SEP]s included
		for i, real := range p.Mask {
			if real {
				segLen[p.Segments[i]]++
			}
		}
		packed := [3]int{segLen[0] - 2, segLen[1] - 1, segLen[2] - 1}
		s := &lineageScorer{m: m, qIDs: make([]int, tc.qLen), tIDs: make([]int, tc.tLen), lens: make([]int, 3)}
		q, tu, f := s.fitLengths(tc.fLen)
		if got := [3]int{q, tu, f}; got != packed || got != tc.want {
			t.Errorf("%s: scorer picks (q, t, f) = %v for (%d, %d, %d), Pack %v, want %v",
				tc.name, got, tc.qLen, tc.tLen, tc.fLen, packed, tc.want)
		}
	}
}

// TestRankOnBatchedCounterAgreement ranks the same inputs one fact per pass
// and in chunks of 3 under separate live registries and asserts the ranking
// counters agree exactly: chunking changes only how facts are packed. It
// also pins the packed-pass metrics: every scored fact flows through a packed
// pass, so nn.mbatch.sequences and core.rank.prefix_hits equal the number of
// scored facts, and chunks of 3 take fewer passes than facts.
func TestRankOnBatchedCounterAgreement(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 44 // tight enough that some facts trim the prefix, some don't
	ins := caseInputs(c)
	if trimmed, facts, _ := prefixTrims(c.DB, ins, cfg); trimmed == 0 || trimmed == facts {
		t.Fatalf("fixture must mix trimmed and untrimmed prefixes: %d of %d facts trim", trimmed, facts)
	}
	tok := buildVocabulary(c, cfg)
	scored := int64(0)
	for _, in := range ins {
		for _, id := range in.Lineage {
			if c.DB.Fact(id) != nil {
				scored++
			}
		}
	}

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
	for _, name := range []string{"core.rank.lineages", "core.rank.facts", "core.rank.prefix_hits"} {
		if perFact.Counters[name] != batched.Counters[name] {
			t.Errorf("counter %s: chunk 1 %d vs chunk 3 %d",
				name, perFact.Counters[name], batched.Counters[name])
		}
	}
	for label, snap := range map[string]obs.Snapshot{"chunk 1": perFact, "chunk 3": batched} {
		for _, name := range []string{"nn.mbatch.sequences", "core.rank.prefix_hits"} {
			if got := snap.Counters[name]; got != scored {
				t.Errorf("%s: %s = %d, want every scored fact (%d)", label, name, got, scored)
			}
		}
	}
	if got := perFact.Counters["nn.mbatch.passes"]; got != scored {
		t.Errorf("chunk 1: nn.mbatch.passes = %d, want one per scored fact (%d)", got, scored)
	}
	if got := batched.Counters["nn.mbatch.passes"]; got == 0 || got >= scored {
		t.Errorf("chunk 3: nn.mbatch.passes = %d, want packed passes (0 < passes < %d)", got, scored)
	}
}
