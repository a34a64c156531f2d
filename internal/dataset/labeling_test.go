package dataset

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/shapley"
)

// TestSamplerLabelerBuild builds a corpus with the amc sampler as the
// primary labeler: every candidate tuple is labeled (no size skips), the
// estimates satisfy efficiency, and the stats attribute every case to the
// sampler.
func TestSamplerLabelerBuild(t *testing.T) {
	cfg := smallConfig(IMDB)
	cfg.Labeler = "amc"
	cfg.LabelSamples = 64
	cfg.LabelSeed = 9
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Labels.Labeled == 0 {
		t.Fatal("sampler build labeled nothing")
	}
	if c.Labels.Sampled != c.Labels.Labeled || c.Labels.Exact != 0 || c.Labels.Fallback != 0 {
		t.Fatalf("stats misattributed: %+v", c.Labels)
	}
	if c.Labels.Skipped != 0 {
		t.Fatalf("sampler primary skipped %d tuples; samplers have no size limit", c.Labels.Skipped)
	}
	for _, q := range c.Queries {
		for _, cs := range q.Cases {
			if s := cs.Gold.Sum(); math.Abs(s-1) > 1e-9 {
				t.Fatalf("query %d: sampled Shapley sum = %v", q.ID, s)
			}
			if len(cs.Gold) != len(cs.Tuple.Lineage()) {
				t.Fatalf("query %d: %d values over %d lineage facts", q.ID, len(cs.Gold), len(cs.Tuple.Lineage()))
			}
		}
	}
}

// TestExactFallbackRescuesLargeLineages pins the automatic-fallback contract:
// with a tight MaxLineage the exact-only build drops tuples, and configuring
// a fallback sampler turns every one of those drops into a labeled case.
func TestExactFallbackRescuesLargeLineages(t *testing.T) {
	base := smallConfig(IMDB)
	base.MaxLineage = 6 // tight enough that real join lineages exceed it

	noFB, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	if noFB.Labels.Skipped == 0 {
		t.Fatal("test premise broken: nothing skipped at MaxLineage=6")
	}
	if noFB.Labels.Fallback != 0 {
		t.Fatalf("no fallback configured, yet stats report %d", noFB.Labels.Fallback)
	}

	withFB := base
	withFB.LabelFallback = "amc"
	withFB.LabelSamples = 64
	c, err := Build(withFB)
	if err != nil {
		t.Fatal(err)
	}
	if c.Labels.Skipped != 0 {
		t.Fatalf("fallback configured but %d tuples still skipped", c.Labels.Skipped)
	}
	if c.Labels.Fallback == 0 {
		t.Fatal("fallback configured but never used")
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
			if len(cs.Tuple.Lineage()) > withFB.MaxLineage {
				overLimit++
			}
		}
	}
	if overLimit == 0 {
		t.Fatal("no over-MaxLineage tuple made it into the corpus via fallback")
	}
}

// TestCorpusBytesIdenticalAcrossWorkers is the seed-determinism gate for the
// amc sampler (ci-enforced; do not rename): the same -label-seed must
// produce byte-identical corpus exports at every worker count.
func TestCorpusBytesIdenticalAcrossWorkers(t *testing.T) {
	cfg := smallConfig(IMDB)
	cfg.Labeler = "amc"
	cfg.LabelSamples = 64
	cfg.LabelSeed = 5
	var exports [][]byte
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		c, err := Build(cfg)
		if err != nil {
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
	// The seed must actually steer the labels.
	cfg.Workers = 1
	cfg.LabelSeed = 6
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(exports[0], buf.Bytes()) {
		t.Fatal("changing the label seed left the corpus unchanged")
	}
}

func TestLabelConfigRoundTrip(t *testing.T) {
	cfg := smallConfig(Academic)
	cfg.Labeler = "amc"
	cfg.LabelSamples = 128
	cfg.LabelSeed = 77
	cfg.LabelFallback = ""
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
	got := back.Config
	if got.Labeler != cfg.Labeler || got.LabelSamples != cfg.LabelSamples ||
		got.LabelSeed != cfg.LabelSeed || got.LabelFallback != cfg.LabelFallback {
		t.Fatalf("label config mangled in round trip: %+v vs %+v", got, cfg)
	}
}

func TestBuildRejectsBadLabelerConfig(t *testing.T) {
	cfg := smallConfig(IMDB)
	cfg.Labeler = "bogus"
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown labeler accepted")
	}
	cfg = smallConfig(IMDB)
	cfg.LabelFallback = "exact"
	if _, err := Build(cfg); err == nil {
		t.Fatal("exact accepted as its own fallback")
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled = false

// TestExactLabelsLargeAcademicLineages runs the exact engine on every output
// tuple of the default Academic corpus over MaxLineage: 12 tuples of 101–175
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
			if len(tp.Lineage()) > cfg.MaxLineage {
				large = append(large, tp)
			}
		}
	}
	if len(large) != 12 {
		t.Fatalf("the default Academic corpus has %d tuples over %d facts, want 12", len(large), cfg.MaxLineage)
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
