package dataset

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/shapley"
	"repro/internal/shapley/approx"
)

// fallbackConfig is the default Academic corpus with the fallback sampler on:
// 11 of its candidate tuples are over maxLineage.
func fallbackConfig() Config {
	cfg := DefaultConfig(Academic)
	cfg.LabelFallback = true
	return cfg
}

// TestExactFallbackRescuesLargeLineages pins the fallback contract on the
// default Academic corpus: without the fallback, exact labeling drops the
// over-maxLineage tuples it meets, and with it every one of those drops
// becomes a labeled case.
func TestExactFallbackRescuesLargeLineages(t *testing.T) {
	base := fallbackConfig()
	base.LabelFallback = false
	noFB, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	if noFB.Labels.Skipped == 0 {
		t.Fatal("test premise broken: nothing skipped without the fallback")
	}
	if noFB.Labels.Fallback != 0 {
		t.Fatalf("no fallback configured, yet stats report %d", noFB.Labels.Fallback)
	}

	c, err := Build(fallbackConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Labels.Skipped != 0 {
		t.Fatalf("fallback configured but %d tuples still skipped", c.Labels.Skipped)
	}
	if c.Labels.Fallback != 11 {
		t.Fatalf("fallback labeled %d tuples, want 11", c.Labels.Fallback)
	}
	if c.Labels.Labeled < noFB.Labels.Labeled {
		t.Fatalf("fallback shrank the corpus: %d < %d", c.Labels.Labeled, noFB.Labels.Labeled)
	}
	// The rescued tuples are exactly the over-limit lineages the exact-only
	// build could never label (MaxCasesPerQuery may keep totals equal — the
	// cap refills with small tuples — but the large regime must now appear).
	overLimit := 0
	for _, q := range c.Queries {
		for _, cs := range q.Cases {
			if len(cs.Tuple.Lineage()) > maxLineage {
				overLimit++
			}
		}
	}
	if overLimit != c.Labels.Fallback {
		t.Fatalf("%d over-maxLineage cases, %d fallback labels", overLimit, c.Labels.Fallback)
	}
}

// TestCorpusBytesIdenticalAcrossWorkers is the seed-determinism gate for the
// fallback sampler (ci-enforced; do not rename): the default Academic corpus,
// whose 11 over-maxLineage tuples amc labels, must export byte-identically at
// every worker count, and every fallback label must be amc's at the seed
// derived from (Seed, query ID, tuple index), bit for bit.
func TestCorpusBytesIdenticalAcrossWorkers(t *testing.T) {
	cfg := fallbackConfig()
	var exports [][]byte
	var c *Corpus
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		var err error
		if c, err = Build(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Export(&buf); err != nil {
			t.Fatal(err)
		}
		exports = append(exports, buf.Bytes())
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatal("corpus export differs between workers=1 and workers=4")
	}
	sampled := 0
	for _, q := range c.Queries {
		for _, cs := range q.Cases {
			if len(cs.Tuple.Lineage()) <= maxLineage {
				continue
			}
			sampled++
			ti := slices.Index(q.Result.Tuples, cs.Tuple)
			seed := approx.DeriveSeed(uint64(cfg.Seed), uint64(q.ID), uint64(ti))
			want, err := approx.MC{Samples: approx.DefaultSamples}.Label(cs.Tuple.Prov, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(cs.Gold) {
				t.Fatalf("query %d tuple %d: %d labels, amc gives %d", q.ID, ti, len(cs.Gold), len(want))
			}
			for id, v := range want {
				if math.Float64bits(cs.Gold[id]) != math.Float64bits(v) {
					t.Fatalf("query %d tuple %d fact %d: label %v, amc at the derived seed %v", q.ID, ti, id, cs.Gold[id], v)
				}
			}
		}
	}
	if sampled != 11 || c.Labels.Fallback != 11 {
		t.Fatalf("%d over-maxLineage cases and %d fallback labels, want 11 of each", sampled, c.Labels.Fallback)
	}
}

// TestLabelConfigRoundTrip pins that every Config field but Workers survives
// export and import, with the fallback on and off.
func TestLabelConfigRoundTrip(t *testing.T) {
	for _, fallback := range []bool{true, false} {
		cfg := smallConfig(Academic)
		cfg.Seed = 3
		cfg.Scale = 0.75
		cfg.LabelFallback = fallback
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Export(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Import(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Config != cfg {
			t.Fatalf("config mangled in round trip: %+v vs %+v", back.Config, cfg)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled = false

// TestExactLabelsLargeAcademicLineages runs the exact engine on every output
// tuple of the default Academic corpus over maxLineage: 12 tuples of 101–175
// facts, all from 7-table chain joins, which labeling skips for size. The
// decision diagram that preceded the decomposition tree ran out of memory on
// 4 of them under a 3 GB limit and took 34 s on another. Each must now finish
// under the node budget with values that sum to 1.
func TestExactLabelsLargeAcademicLineages(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds of single-goroutine arithmetic; the race detector only multiplies them")
	}
	cfg := DefaultConfig(Academic)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var large []*engine.OutputTuple
	for _, q := range c.Queries {
		for _, tp := range q.Result.Tuples {
			if len(tp.Lineage()) > maxLineage {
				large = append(large, tp)
			}
		}
	}
	if len(large) != 12 {
		t.Fatalf("the default Academic corpus has %d tuples over %d facts, want 12", len(large), maxLineage)
	}
	// Largest first, so the two slowest do not end up on one worker.
	sort.Slice(large, func(i, j int) bool { return len(large[i].Lineage()) > len(large[j].Lineage()) })
	errs := parallel.Map(0, len(large), func(i int) error {
		vals, st, err := shapley.Exact(large[i].Prov)
		if err != nil {
			return err
		}
		t.Logf("%d facts: %d tree nodes", st.LineageSize, st.CircuitNodes)
		if s := vals.Sum(); math.Abs(s-1) > 1e-9 {
			t.Errorf("%d facts: values sum to %v", st.LineageSize, s)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("%d facts: %v", len(large[i].Lineage()), err)
		}
	}
}
