package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/relation"
)

// ExtensionResult reports the contributing/non-contributing separation study.
type ExtensionResult struct {
	AUCWithoutNegatives float64
	AUCWithNegatives    float64
}

// ExtensionUnrestrictedRanking implements the paper's future-work direction
// (Section 7): the published LearnShapley is trained only on positive samples
// and "is not able to accurately differentiate between contributing and
// non-contributing facts". We train LearnShapley-base twice on the Academic
// corpus — once as published, once with negative samples (random non-lineage
// facts regressed to 0) — and measure, over test cases, the probability that
// a random lineage fact outscores a random non-lineage fact (AUC). Negative
// sampling should lift the AUC well above the positives-only model's.
func ExtensionUnrestrictedRanking(s *Suite, w io.Writer) (ExtensionResult, error) {
	section(w, "Extension (§7 future work): ranking arbitrary facts without the lineage")
	c, sims := s.Corpus(dataset.Academic)

	plain := s.Cfg.Base
	plain.Name = "base (positives only)"
	plain.FinetuneEpochs = s.Cfg.SweepFinetuneEpochs

	negative := plain
	negative.Name = "base + negative samples"
	negative.NegativeSamplesPerEpoch = plain.FinetuneSamplesPerEpoch / 4

	var out ExtensionResult
	for i, cfg := range []core.ModelConfig{plain, negative} {
		m, _, err := core.Train(c, sims, cfg, nil)
		if err != nil {
			return out, err
		}
		auc := contributionAUC(c, m, s.Cfg.MaxEvalCases)
		if i == 0 {
			out.AUCWithoutNegatives = auc
		} else {
			out.AUCWithNegatives = auc
		}
		fmt.Fprintf(w, "%-26s AUC(lineage vs non-lineage) = %.3f\n", cfg.Name, auc)
	}
	return out, nil
}

// CrossSchemaResult reports the schema-transfer study.
type CrossSchemaResult struct {
	InDomainNDCG    float64 // IMDB-trained model on IMDB test cases
	CrossSchemaNDCG float64 // IMDB-trained model on Academic test cases
}

// ExtensionCrossSchema probes the paper's second future-work direction:
// generalization to a new database schema. The IMDB-trained base model ranks
// Academic test lineages (only shared surface tokens — numbers, common words,
// countries — can transfer), and its NDCG is compared to its in-domain score.
// The expected outcome is a large gap: LearnShapley is an in-domain system.
func ExtensionCrossSchema(s *Suite, w io.Writer) (CrossSchemaResult, error) {
	section(w, "Extension (§7 future work): cross-schema generalization")
	m, _, err := s.Model(dataset.IMDB, s.Cfg.Base)
	if err != nil {
		return CrossSchemaResult{}, err
	}
	var out CrossSchemaResult
	imdb, _ := s.Corpus(dataset.IMDB)
	out.InDomainNDCG = Evaluate(imdb, m, imdb.Test, s.Cfg.MaxEvalCases, s.Cfg.Workers).NDCG10

	acad, _ := s.Corpus(dataset.Academic)
	var scores []float64
	count := 0
	for _, qi := range acad.Test {
		for _, cs := range acad.Queries[qi].Cases {
			if count >= s.Cfg.MaxEvalCases {
				break
			}
			count++
			in := inputFor(acad, qi, cs)
			pred := m.RankOn(acad.DB, in)
			scores = append(scores, metrics.NDCGAtK(pred, cs.Gold, 10))
		}
	}
	out.CrossSchemaNDCG = metrics.Mean(scores)
	fmt.Fprintf(w, "IMDB-trained base, in-domain (IMDB) NDCG@10:       %.3f\n", out.InDomainNDCG)
	fmt.Fprintf(w, "IMDB-trained base, cross-schema (Academic) NDCG@10: %.3f\n", out.CrossSchemaNDCG)
	return out, nil
}

// contributionAUC estimates P(score(lineage fact) > score(random non-lineage
// fact)) over the test cases, the natural measure of how well a ranker could
// operate without being handed the lineage.
func contributionAUC(c *dataset.Corpus, m *core.Model, maxCases int) float64 {
	rng := rand.New(rand.NewSource(99))
	wins, ties, total := 0.0, 0.0, 0
	count := 0
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			if count >= maxCases {
				break
			}
			count++
			lineage := cs.Tuple.Lineage()
			inLineage := make(map[relation.FactID]bool, len(lineage))
			for _, id := range lineage {
				inLineage[id] = true
			}
			// Equal-sized random sample of non-lineage facts.
			var outsiders []relation.FactID
			for len(outsiders) < len(lineage) {
				id := relation.FactID(rng.Intn(c.DB.NumFacts()))
				if !inLineage[id] {
					outsiders = append(outsiders, id)
				}
			}
			in := inputFor(c, qi, cs)
			in.Lineage = append(append([]relation.FactID(nil), lineage...), outsiders...)
			scores := m.Rank(in)
			for _, pos := range lineage {
				for _, neg := range outsiders {
					switch {
					case scores[pos] > scores[neg]:
						wins++
					case scores[pos] == scores[neg]:
						ties++
					}
					total++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return (wins + ties/2) / float64(total)
}
