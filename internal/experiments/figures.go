package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// Figure7Result holds the similarity heat-maps and their orthogonality
// statistics.
type Figure7Result struct {
	// Correlations between metric pairs over all query pairs, per database.
	// Low correlation = the metrics activate different regions of the grid.
	Correlations map[string]map[string]float64
}

// Figure7 renders coarse text heat-maps of the three pairwise-similarity
// matrices and reports the inter-metric Pearson correlations that quantify
// the orthogonality the paper's heat-maps show visually.
func (s *Suite) Figure7(w io.Writer) Figure7Result {
	section(w, "Figure 7: similarity heat-maps and metric orthogonality")
	out := Figure7Result{Correlations: make(map[string]map[string]float64)}
	shades := []rune(" .:-=+*#%@")
	for _, kind := range []dataset.Kind{dataset.IMDB, dataset.Academic} {
		c, sims := s.Corpus(kind)
		n := len(c.Queries)
		if n > 24 {
			n = 24
		}
		series := map[string][]float64{}
		for _, metric := range []string{"syntax", "witness", "rank"} {
			f := sims.ByMetric(metric)
			fmt.Fprintf(w, "\n[%s / %s-based] (%dx%d prefix, darker = more similar)\n", kind, metric, n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := f(i, j)
					idx := int(v * float64(len(shades)-1))
					if idx >= len(shades) {
						idx = len(shades) - 1
					}
					fmt.Fprintf(w, "%c", shades[idx])
					if i < j {
						series[metric] = append(series[metric], v)
					}
				}
				fmt.Fprintln(w)
			}
		}
		corr := map[string]float64{
			"syntax~witness": metrics.Pearson(series["syntax"], series["witness"]),
			"syntax~rank":    metrics.Pearson(series["syntax"], series["rank"]),
			"witness~rank":   metrics.Pearson(series["witness"], series["rank"]),
		}
		out.Correlations[kind.String()] = corr
		names := make([]string, 0, len(corr))
		for k := range corr {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "corr(%s) on %s = %.3f\n", name, kind, corr[name])
		}
	}
	return out
}

// Figure8 prints sample (query, output tuple, fact, Shapley) quartets from
// both databases, like the paper's qualitative examples.
func (s *Suite) Figure8(w io.Writer) {
	section(w, "Figure 8: sample quartets from the corpus")
	for _, kind := range []dataset.Kind{dataset.Academic, dataset.IMDB} {
		c, _ := s.Corpus(kind)
		qi := c.Train[0]
		q := c.Queries[qi]
		fmt.Fprintf(w, "\n[%s] query: %s\n", kind, q.SQL)
		for ci, cs := range q.Cases {
			if ci >= 1 {
				break
			}
			fmt.Fprintf(w, "  output tuple: %s\n", cs.Tuple)
			ranked := cs.Gold.Ranking()
			for i, id := range ranked {
				if i >= 5 {
					break
				}
				fmt.Fprintf(w, "    %.3f  %s\n", cs.Gold[id], c.DB.Fact(id))
			}
		}
	}
}

// Figure9Result holds the per-case performance analyses of Figure 9.
type Figure9Result struct {
	TrendSlopeLineage float64 // NDCG@10 vs lineage size (expected ≤ 0)
	TrendSlopeTables  float64 // NDCG@10 vs #joined tables (expected ≈ 0)
	LineageBuckets    []Bucket
	TableBuckets      []Bucket
}

// Bucket is a binned mean for text rendering of a scatter plot.
type Bucket struct {
	Label string
	Mean  float64
	Count int
}

// Figure9 analyzes LearnShapley-base on the Academic test set: NDCG@10 as a
// function of (a) lineage size and (b) the number of joined tables.
func (s *Suite) Figure9(w io.Writer) (Figure9Result, error) {
	section(w, "Figure 9: NDCG@10 vs lineage size (a) and query complexity (b), Academic")
	c, _ := s.Corpus(dataset.Academic)
	m, _, err := s.Model(dataset.Academic, s.Cfg.Base)
	if err != nil {
		return Figure9Result{}, err
	}
	res := Evaluate(c, m, c.Test, s.Cfg.MaxEvalCases, s.Cfg.Workers)
	var sizes, tables, scores []float64
	for _, cs := range res.PerCase {
		sizes = append(sizes, float64(cs.LineageSize))
		tables = append(tables, float64(cs.NumTables))
		scores = append(scores, cs.NDCG10)
	}
	out := Figure9Result{
		TrendSlopeLineage: metrics.LinearTrend(sizes, scores),
		TrendSlopeTables:  metrics.LinearTrend(tables, scores),
	}
	out.LineageBuckets = bucketize(res.PerCase, func(cs CaseScore) (string, bool) {
		switch {
		case cs.LineageSize <= 5:
			return "lineage 1-5", true
		case cs.LineageSize <= 10:
			return "lineage 6-10", true
		case cs.LineageSize <= 20:
			return "lineage 11-20", true
		default:
			return "lineage >20", true
		}
	})
	out.TableBuckets = bucketize(res.PerCase, func(cs CaseScore) (string, bool) {
		return fmt.Sprintf("%d tables", cs.NumTables), true
	})
	fmt.Fprintf(w, "(a) trendline slope (NDCG vs lineage size): %+.5f\n", out.TrendSlopeLineage)
	for _, b := range out.LineageBuckets {
		fmt.Fprintf(w, "    %-14s mean NDCG@10 = %.3f (n=%d)\n", b.Label, b.Mean, b.Count)
	}
	fmt.Fprintf(w, "(b) trendline slope (NDCG vs #tables): %+.5f\n", out.TrendSlopeTables)
	for _, b := range out.TableBuckets {
		fmt.Fprintf(w, "    %-14s mean NDCG@10 = %.3f (n=%d)\n", b.Label, b.Mean, b.Count)
	}
	return out, nil
}

func bucketize(cases []CaseScore, key func(CaseScore) (string, bool)) []Bucket {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, cs := range cases {
		k, ok := key(cs)
		if !ok {
			continue
		}
		sums[k] += cs.NDCG10
		counts[k]++
	}
	labels := make([]string, 0, len(sums))
	for k := range sums {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	out := make([]Bucket, 0, len(labels))
	for _, k := range labels {
		out = append(out, Bucket{Label: k, Mean: sums[k] / float64(counts[k]), Count: counts[k]})
	}
	return out
}

// Figure10Result correlates per-case NDCG with log similarity (Figure 10).
type Figure10Result struct {
	// Corr[metric][mode] with mode "top1" or "top5mean".
	Corr map[string]map[string]float64
}

// Figure10 computes, for each Academic test case, the similarity of its query
// to the nearest train query (top-1) and to the mean of the five nearest
// (top-5), under each metric, and correlates those with LearnShapley's
// NDCG@10. The paper finds positive correlation for top-5 means.
func (s *Suite) Figure10(w io.Writer) (Figure10Result, error) {
	section(w, "Figure 10: NDCG@10 vs nearest-query similarity (Academic)")
	c, sims := s.Corpus(dataset.Academic)
	m, _, err := s.Model(dataset.Academic, s.Cfg.Base)
	if err != nil {
		return Figure10Result{}, err
	}
	res := Evaluate(c, m, c.Test, s.Cfg.MaxEvalCases, s.Cfg.Workers)
	out := Figure10Result{Corr: make(map[string]map[string]float64)}
	for _, metric := range []string{"syntax", "witness", "rank"} {
		f := sims.ByMetric(metric)
		var top1, top5, scores []float64
		for _, cs := range res.PerCase {
			var simsToTrain []float64
			for _, ti := range c.Train {
				simsToTrain = append(simsToTrain, f(cs.QueryIdx, ti))
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(simsToTrain)))
			top1 = append(top1, simsToTrain[0])
			k := 5
			if len(simsToTrain) < k {
				k = len(simsToTrain)
			}
			top5 = append(top5, metrics.Mean(simsToTrain[:k]))
			scores = append(scores, cs.NDCG10)
		}
		out.Corr[metric] = map[string]float64{
			"top1":     metrics.Pearson(top1, scores),
			"top5mean": metrics.Pearson(top5, scores),
		}
		fmt.Fprintf(w, "%-8s corr(top-1 sim, NDCG) = %+.3f   corr(top-5 mean sim, NDCG) = %+.3f\n",
			metric, out.Corr[metric]["top1"], out.Corr[metric]["top5mean"])
	}
	return out, nil
}

// Figure11Result is the varying-log-size study (Figure 11).
type Figure11Result struct {
	// Rows[pct] -> method -> EvalResult, for pct in 10,25,50,75,100.
	Rows map[int]map[string]EvalResult
	// UnseenPct[pct] is the fraction of test facts unseen at that log size.
	UnseenPct map[int]float64
}

// Figure11 trains LearnShapley and the Nearest Queries baselines on nested
// subsets (10/25/50/75/100%) of the training log and reports test NDCG@10.
func (s *Suite) Figure11(w io.Writer) (Figure11Result, error) {
	section(w, "Figure 11: varying query-log sizes (Academic)")
	c, sims := s.Corpus(dataset.Academic)
	out := Figure11Result{Rows: make(map[int]map[string]EvalResult), UnseenPct: make(map[int]float64)}
	pcts := []int{10, 25, 50, 75, 100}
	for _, pct := range pcts {
		n := len(c.Train) * pct / 100
		if n < 1 {
			n = 1
		}
		// Nested subsets: prefixes of the same shuffled order.
		sub := c.Train[:n]
		row := make(map[string]EvalResult)
		cfg := s.Cfg.Base
		cfg.Name = fmt.Sprintf("LearnShapley-base@%d%%", pct)
		cfg.FinetuneEpochs = s.Cfg.SweepFinetuneEpochs
		m, _, err := core.Train(c, sims, cfg, sub)
		if err != nil {
			return out, err
		}
		row["LearnShapley"] = Evaluate(c, m, c.Test, s.Cfg.MaxEvalCases, s.Cfg.Workers)
		for _, metric := range []string{"syntax", "witness"} {
			nq := baselines.NewNearestQueries(c, sims, metric, 3, sub)
			row["kNN-"+metric] = Evaluate(c, nq, c.Test, s.Cfg.MaxEvalCases, s.Cfg.Workers)
		}
		out.Rows[pct] = row
		out.UnseenPct[pct] = unseenFraction(c, sub)
		fmt.Fprintf(w, "log %3d%%: LearnShapley NDCG@10 = %.3f | kNN-syntax = %.3f | kNN-witness = %.3f | unseen facts = %.1f%%\n",
			pct, row["LearnShapley"].NDCG10, row["kNN-syntax"].NDCG10, row["kNN-witness"].NDCG10,
			100*out.UnseenPct[pct])
	}
	return out, nil
}

// unseenFraction computes the fraction of test-lineage facts absent from the
// given training subset's lineages (Section 5.7's statistic).
func unseenFraction(c *dataset.Corpus, trainIdx []int) float64 {
	seen := make(map[relation.FactID]bool)
	for _, qi := range trainIdx {
		for _, cs := range c.Queries[qi].Cases {
			for id := range cs.Gold {
				seen[id] = true
			}
		}
	}
	total, unseen := 0, 0
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			for id := range cs.Gold {
				total++
				if !seen[id] {
					unseen++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(unseen) / float64(total)
}

// Figure12Result holds the seen/unseen partial-NDCG analysis (Figure 12).
type Figure12Result struct {
	MeanSeenNDCG   float64
	MeanUnseenNDCG float64
	CasesWithBoth  int
}

// Figure12 evaluates LearnShapley-base separately on the seen and unseen
// facts of every Academic test case, using partial NDCG over each subset.
func (s *Suite) Figure12(w io.Writer) (Figure12Result, error) {
	section(w, "Figure 12: partial NDCG on seen vs unseen facts (Academic)")
	c, _ := s.Corpus(dataset.Academic)
	m, _, err := s.Model(dataset.Academic, s.Cfg.Base)
	if err != nil {
		return Figure12Result{}, err
	}
	seen := c.TrainFactIDs()
	var seenScores, unseenScores []float64
	both := 0
	count := 0
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			if count >= s.Cfg.MaxEvalCases {
				break
			}
			count++
			pred := m.RankCase(c, qi, cs)
			sPred, sGold := filterValues(pred, cs.Gold, seen, true)
			uPred, uGold := filterValues(pred, cs.Gold, seen, false)
			hasSeen, hasUnseen := len(sGold) > 1, len(uGold) > 1
			if hasSeen {
				seenScores = append(seenScores, metrics.NDCGAtK(sPred, sGold, 10))
			}
			if hasUnseen {
				unseenScores = append(unseenScores, metrics.NDCGAtK(uPred, uGold, 10))
			}
			if hasSeen && hasUnseen {
				both++
			}
		}
	}
	out := Figure12Result{
		MeanSeenNDCG:   metrics.Mean(seenScores),
		MeanUnseenNDCG: metrics.Mean(unseenScores),
		CasesWithBoth:  both,
	}
	fmt.Fprintf(w, "partial NDCG@10 on seen facts:   %.3f (n=%d)\n", out.MeanSeenNDCG, len(seenScores))
	fmt.Fprintf(w, "partial NDCG@10 on unseen facts: %.3f (n=%d)\n", out.MeanUnseenNDCG, len(unseenScores))
	fmt.Fprintf(w, "cases with both populations: %d\n", both)
	return out, nil
}

func filterValues(pred, gold shapley.Values, seen map[relation.FactID]bool, wantSeen bool) (p, g shapley.Values) {
	p = make(shapley.Values)
	g = make(shapley.Values)
	for id, v := range gold {
		if seen[id] == wantSeen {
			g[id] = v
			p[id] = pred[id]
		}
	}
	return p, g
}
