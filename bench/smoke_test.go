package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// smoke is the scale of the smoke runs: a 14-query corpus, a one-layer
// dim-16 model trained on 20 samples, one set-up and 0.3 s of load.
var smoke = settings{
	seconds: 0.3,
	setups:  1,
	queries: 14,
	model: func(c *core.ModelConfig) {
		c.Dim, c.FFNHidden, c.Heads, c.Layers = 16, 32, 2, 1
		c.PretrainEpochs, c.PretrainMetrics = 0, nil
		c.FinetuneSamplesPerEpoch = 20
	},
}

// TestSmoke runs every workload end to end at smoke scale: every answer must
// pass its checks and every end-to-end metric the sample supports must be
// reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := run(w, 1, smoke)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted <= w.warmup {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		for _, name := range []string{"setup_s", "rps", "ndcg10"} {
			if v, ok := res.Metrics[name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, %v", w.name, name, v, ok)
			}
		}
	}
}

// TestSmokeTraced runs the traced path once: it must report only declared
// per-layer metrics, the whole crossover table among them, and write a
// Chrome trace.
func TestSmokeTraced(t *testing.T) {
	s := smoke
	s.trace, s.out = true, t.TempDir()
	res, err := run(workloads[0], 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("answers failed their checks: %v", res.Problems)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for name := range res.Metrics {
		if !declared[name] {
			t.Errorf("traced run reports undeclared metric %s", name)
		}
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok && strings.HasPrefix(d.name, "crossover.") {
			t.Errorf("no %s", d.name)
		}
	}
	if _, err := os.Stat(filepath.Join(s.out, "trace-rank_short-seed1.json")); err != nil {
		t.Error(err)
	}
}
