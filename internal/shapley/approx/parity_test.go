package approx

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/shapley"
)

// TestSamplerOracleParityGate is the ci accuracy gate (grep-enforced by
// scripts/ci.sh — do not rename or skip): amc must hold Spearman >= 0.95
// against the exact oracle on each golden lineage at the GateSamples budget.
// The run is fully deterministic — fixed lineages, and each lineage's seed a
// pure function of its index (DeriveSeed) — so a pass is stable across
// machines and worker counts; the work is scheduled over internal/parallel
// exactly as corpus labeling schedules it.
func TestSamplerOracleParityGate(t *testing.T) {
	lineages := BenchmarkLineages()
	amc := MC{Samples: GateSamples}
	type verdict struct {
		acc Accuracy
		err error
	}
	verdicts := parallel.Map(4, len(lineages), func(i int) verdict {
		bl := lineages[i]
		gold, _, err := shapley.Exact(bl.DNF)
		if err != nil {
			return verdict{err: err}
		}
		est, err := amc.Label(bl.DNF, DeriveSeed(1, uint64(i)))
		if err != nil {
			return verdict{err: err}
		}
		return verdict{acc: Score(est, gold, 10)}
	})
	for i, v := range verdicts {
		name := lineages[i].Name
		if v.err != nil {
			t.Fatalf("%s: %v", name, v.err)
		}
		t.Logf("amc %-16s spearman=%.4f top10=%.2f mae=%.5f", name, v.acc.Spearman, v.acc.TopK, v.acc.MAE)
		if v.acc.Spearman < 0.95 {
			t.Errorf("amc on %s: Spearman %.4f < 0.95 parity floor", name, v.acc.Spearman)
		}
	}
}
