package core

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/shapley"
)

// TestRankManyGolden is the golden bit-identity test for cross-request
// packing: ranking all corpus lineages at once must score every fact
// bit-for-bit identically to independent per-request RankOn calls, across
// chunk sizes (one fact per pass, smaller than, equal to and spanning
// lineages — chunks then mix facts of different lineages in one pass).
func TestRankManyGolden(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	ins := caseInputs(c)
	if len(ins) < 2 {
		t.Fatal("corpus must have several labeled cases to pack across")
	}
	want := make([]shapley.Values, len(ins))
	for i, in := range ins {
		want[i] = m.RankOn(c.DB, in)
	}
	got := m.RankManyOn(c.DB, ins)
	for i := range ins {
		assertValuesBitEqual(t, "rankmany", got[i], want[i])
	}
	for _, chunk := range goldenChunks {
		got := m.rankMany(c.DB, ins, chunk)
		for i := range ins {
			assertValuesBitEqual(t, "rankmany-chunked", got[i], want[i])
		}
	}
}

// TestRankManyTruncatedGolden repeats the golden comparison with a sequence
// budget tight enough that truncation reaches the prefix for some facts but
// not others: a packed chunk may then hold fast-path facts of several
// lineages while their neighbors fall back per-lineage. Every score must
// still match the padded full-length reference bitwise, and both the hit and
// fallback counters must fire — mixed eligibility is the point.
func TestRankManyTruncatedGolden(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 44 // tight enough that some facts fall back, some don't
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))

	run := obs.NewRun("rankmany-trunc-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	ins := caseInputs(c)
	got := m.rankMany(c.DB, ins, 4)
	for i, in := range ins {
		assertValuesBitEqual(t, "rankmany-truncated", got[i], m.rankOnFull(c.DB, in))
	}
	snap := run.Reg.Snapshot()
	if snap.Counters["core.rank.prefix_hits"] == 0 || snap.Counters["core.rank.prefix_fallbacks"] == 0 {
		t.Errorf("fixture must mix eligibility within one RankMany call: hits=%d fallbacks=%d",
			snap.Counters["core.rank.prefix_hits"], snap.Counters["core.rank.prefix_fallbacks"])
	}
}

// TestRankManyCounterAgreement asserts RankMany classifies every fact through
// the same eligibility rule as per-request ranking (identical core.rank.*
// counters) and pins the cross-request pass metrics: every fast-path fact
// flows through a multi-prefix pass, so nn.mbatch.sequences equals the hit
// count.
func TestRankManyCounterAgreement(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 44
	tok := buildVocabulary(c, cfg)
	ins := caseInputs(c)

	snapshot := func(many bool) obs.Snapshot {
		run := obs.NewRun("rankmany-counter-test", obs.NewRegistry(), nil, nil)
		obs.Install(run)
		defer obs.Uninstall()
		m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
		if many {
			m.RankManyOn(c.DB, ins)
		} else {
			for _, in := range ins {
				m.RankOn(c.DB, in)
			}
		}
		return run.Reg.Snapshot()
	}

	perRequest := snapshot(false)
	many := snapshot(true)
	for _, name := range []string{
		"core.rank.lineages", "core.rank.facts",
		"core.rank.prefix_hits", "core.rank.prefix_fallbacks",
	} {
		if perRequest.Counters[name] != many.Counters[name] {
			t.Errorf("counter %s: per-request %d vs RankMany %d",
				name, perRequest.Counters[name], many.Counters[name])
		}
	}
	hits := perRequest.Counters["core.rank.prefix_hits"]
	if hits == 0 || perRequest.Counters["core.rank.prefix_fallbacks"] == 0 {
		t.Fatalf("fixture must exercise both paths: hits=%d fallbacks=%d",
			hits, perRequest.Counters["core.rank.prefix_fallbacks"])
	}
	if got := many.Counters["nn.mbatch.sequences"]; got != hits {
		t.Errorf("nn.mbatch.sequences = %d, want every fast-path fact (%d)", got, hits)
	}
	if many.Counters["nn.mbatch.passes"] == 0 {
		t.Error("RankMany recorded no multi-prefix passes")
	}
	if many.Counters["nn.mbatch.prefixes"] < many.Counters["nn.mbatch.passes"] {
		t.Error("every multi-prefix pass spans at least one lineage group")
	}
}
