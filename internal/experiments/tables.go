package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// Table1Result holds DBShap statistics per split (Table 1).
type Table1Result struct {
	PerDB map[string]map[string]dataset.SplitStats // db -> split -> stats
}

// Table1 computes and prints corpus statistics: #queries, #results and
// #contributing facts per split, per database.
func (s *Suite) Table1(w io.Writer) Table1Result {
	section(w, "Table 1: corpus statistics (synthetic DBShap)")
	out := Table1Result{PerDB: make(map[string]map[string]dataset.SplitStats)}
	fmt.Fprintf(w, "%-10s %-8s %10s %10s %12s\n", "database", "split", "#queries", "#results", "#facts")
	for _, kind := range []dataset.Kind{dataset.IMDB, dataset.Academic} {
		c, _ := s.Corpus(kind)
		splits := map[string][]int{"train": c.Train, "dev": c.Dev, "test": c.Test}
		out.PerDB[kind.String()] = make(map[string]dataset.SplitStats)
		for _, name := range []string{"train", "dev", "test"} {
			st := c.Stats(splits[name])
			out.PerDB[kind.String()][name] = st
			fmt.Fprintf(w, "%-10s %-8s %10d %10d %12d\n", kind, name, st.Queries, st.Results, st.Facts)
		}
		all := append(append(append([]int(nil), c.Train...), c.Dev...), c.Test...)
		st := c.Stats(all)
		out.PerDB[kind.String()]["total"] = st
		fmt.Fprintf(w, "%-10s %-8s %10d %10d %12d\n", kind, "total", st.Queries, st.Results, st.Facts)
	}
	return out
}

// Table2Result holds average pairwise similarities between splits (Table 2).
type Table2Result struct {
	// Rows[db][metric][pairKind] with pairKind in train-train, train-dev,
	// train-test.
	Rows map[string]map[string]map[string]float64
}

// Table2 computes average query similarity between the train split and each
// split, for all three metrics and both databases.
func (s *Suite) Table2(w io.Writer) Table2Result {
	section(w, "Table 2: average query similarities between splits")
	out := Table2Result{Rows: make(map[string]map[string]map[string]float64)}
	fmt.Fprintf(w, "%-10s %-22s %12s %12s %12s\n", "database", "metric", "train-train", "train-dev", "train-test")
	for _, kind := range []dataset.Kind{dataset.IMDB, dataset.Academic} {
		c, sims := s.Corpus(kind)
		out.Rows[kind.String()] = make(map[string]map[string]float64)
		for _, metric := range []string{"syntax", "witness", "rank"} {
			row := map[string]float64{
				"train-train": avgSimilarity(sims, metric, c.Train, c.Train),
				"train-dev":   avgSimilarity(sims, metric, c.Train, c.Dev),
				"train-test":  avgSimilarity(sims, metric, c.Train, c.Test),
			}
			out.Rows[kind.String()][metric] = row
			fmt.Fprintf(w, "%-10s %-22s %12.4f %12.4f %12.4f\n",
				kind, metric+"-based", row["train-train"], row["train-dev"], row["train-test"])
		}
	}
	return out
}

func avgSimilarity(sims *dataset.SimilarityCache, metric string, a, b []int) float64 {
	f := sims.ByMetric(metric)
	total, count := 0.0, 0
	for _, i := range a {
		for _, j := range b {
			if i == j {
				continue
			}
			total += f(i, j)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// Table3Result holds the main comparison (Table 3).
type Table3Result struct {
	// Rows[db] is the ordered method list with scores.
	Rows map[string][]EvalResult
}

// Table3 runs the headline comparison: LearnShapley-base/large vs the three
// Nearest Queries baselines (n = 3) vs the two ablations, on both databases.
func (s *Suite) Table3(w io.Writer) (Table3Result, error) {
	section(w, "Table 3: main results (NDCG@10, p@1, p@3, p@5)")
	out := Table3Result{Rows: make(map[string][]EvalResult)}
	for _, kind := range []dataset.Kind{dataset.Academic, dataset.IMDB} {
		c, _ := s.Corpus(kind)
		var rows []EvalResult
		for _, metric := range []string{"syntax", "witness", "rank"} {
			nq := s.Baseline(kind, metric, 3)
			rows = append(rows, Evaluate(c, nq, c.Test, s.Cfg.MaxEvalCases, s.Cfg.Workers))
		}
		for _, cfg := range []core.ModelConfig{
			s.ablationCfg(core.SmallTransformerConfig()),
			s.ablationCfg(core.NoPretrainConfig()),
			s.Cfg.Base,
			s.Cfg.Large,
		} {
			m, _, err := s.Model(kind, cfg)
			if err != nil {
				return out, err
			}
			rows = append(rows, Evaluate(c, m, c.Test, s.Cfg.MaxEvalCases, s.Cfg.Workers))
		}
		out.Rows[kind.String()] = rows
		fmt.Fprintf(w, "\n[%s]\n%-28s %8s %8s %8s %8s\n", kind, "method", "NDCG@10", "p@1", "p@3", "p@5")
		for _, r := range rows {
			fmt.Fprintf(w, "%-28s %8.3f %8.3f %8.3f %8.3f\n", r.Method, r.NDCG10, r.P1, r.P3, r.P5)
		}
	}
	return out, nil
}

// ablationCfg aligns an ablation's schedule with the suite's base schedule.
func (s *Suite) ablationCfg(cfg core.ModelConfig) core.ModelConfig {
	cfg.FinetuneEpochs = s.Cfg.Base.FinetuneEpochs
	cfg.FinetuneSamplesPerEpoch = s.Cfg.Base.FinetuneSamplesPerEpoch
	if len(cfg.PretrainMetrics) > 0 {
		cfg.PretrainEpochs = s.Cfg.Base.PretrainEpochs
		cfg.PretrainPairsPerEpoch = s.Cfg.Base.PretrainPairsPerEpoch
	}
	cfg.Workers = s.Cfg.Workers
	return cfg
}

// Table4Result holds the pre-training-objective ablation (Table 4).
type Table4Result struct {
	Rows []EvalResult
}

// Table4 pre-trains LearnShapley-base on every subset of the similarity
// metrics (Academic database, as in the paper) and reports test quality.
func (s *Suite) Table4(w io.Writer) (Table4Result, error) {
	section(w, "Table 4: pre-training similarity-metric ablation (Academic)")
	combos := []struct {
		name    string
		metrics []string
	}{
		{"syntax & witness & rank", []string{core.MetricSyntax, core.MetricWitness, core.MetricRank}},
		{"witness & rank (w/o syntax)", []string{core.MetricWitness, core.MetricRank}},
		{"syntax & rank (w/o witness)", []string{core.MetricSyntax, core.MetricRank}},
		{"witness & syntax (w/o rank)", []string{core.MetricSyntax, core.MetricWitness}},
		{"syntax only", []string{core.MetricSyntax}},
		{"witness only", []string{core.MetricWitness}},
		{"rank only", []string{core.MetricRank}},
	}
	c, sims := s.Corpus(dataset.Academic)
	var out Table4Result
	fmt.Fprintf(w, "%-30s %8s %8s %8s %8s\n", "pre-training objectives", "NDCG@10", "p@1", "p@3", "p@5")
	for _, combo := range combos {
		cfg := s.Cfg.Base
		cfg.Name = combo.name
		cfg.PretrainMetrics = combo.metrics
		cfg.FinetuneEpochs = s.Cfg.SweepFinetuneEpochs
		m, _, err := core.Train(c, sims, cfg, nil)
		if err != nil {
			return out, err
		}
		r := Evaluate(c, m, c.Test, s.Cfg.MaxEvalCases, s.Cfg.Workers)
		out.Rows = append(out.Rows, r)
		fmt.Fprintf(w, "%-30s %8.3f %8.3f %8.3f %8.3f\n", r.Method, r.NDCG10, r.P1, r.P3, r.P5)
	}
	return out, nil
}

// Table5Result is the qualitative unseen-fact example (Table 5).
type Table5Result struct {
	SQL           string
	Rows          []Table5Row
	UnseenInTable int
}

// Table5Row pairs predicted and true ranks for one lineage fact.
type Table5Row struct {
	PredictedRank int
	TrueRank      int
	Fact          string
	Unseen        bool
}

// Table5 finds a test case whose lineage contains facts unseen during
// training and prints LearnShapley's predicted ranking against the truth.
func (s *Suite) Table5(w io.Writer) (Table5Result, error) {
	section(w, "Table 5: prediction for a lineage with unseen facts (Academic)")
	c, _ := s.Corpus(dataset.Academic)
	m, _, err := s.Model(dataset.Academic, s.Cfg.Base)
	if err != nil {
		return Table5Result{}, err
	}
	seen := c.TrainFactIDs()
	var best Table5Result
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			if len(cs.Gold) < 4 || len(cs.Gold) > 12 {
				continue
			}
			unseen := 0
			for id := range cs.Gold {
				if !seen[id] {
					unseen++
				}
			}
			if unseen == 0 {
				continue
			}
			pred := m.RankCase(c, qi, cs)
			rows := rankTable(c, pred, cs.Gold, seen)
			res := Table5Result{SQL: c.Queries[qi].SQL, Rows: rows, UnseenInTable: unseen}
			if best.Rows == nil || unseen > best.UnseenInTable {
				best = res
			}
		}
	}
	if best.Rows == nil {
		fmt.Fprintln(w, "(no test case with unseen facts at this scale)")
		return best, nil
	}
	fmt.Fprintf(w, "query: %s\n", best.SQL)
	fmt.Fprintf(w, "%-14s %-9s %s\n", "predicted", "true", "fact")
	for _, r := range best.Rows {
		marker := ""
		if r.Unseen {
			marker = "  [unseen in training]"
		}
		fmt.Fprintf(w, "%-14d %-9d %s%s\n", r.PredictedRank, r.TrueRank, r.Fact, marker)
	}
	return best, nil
}

func rankTable(c *dataset.Corpus, pred, gold shapley.Values, seen map[relation.FactID]bool) []Table5Row {
	predRank := make(map[relation.FactID]int)
	for i, id := range pred.Ranking() {
		predRank[id] = i + 1
	}
	var rows []Table5Row
	for i, id := range gold.Ranking() {
		fact := c.DB.Fact(id)
		label := fmt.Sprintf("fact#%d", id)
		if fact != nil {
			label = fact.String()
			if len(label) > 60 {
				label = label[:57] + "..."
			}
		}
		rows = append(rows, Table5Row{
			PredictedRank: predRank[id],
			TrueRank:      i + 1,
			Fact:          label,
			Unseen:        !seen[id],
		})
	}
	return rows
}

// Table6Result holds per-method inference times (Table 6).
type Table6Result struct {
	Rows []Table6Row
}

// Table6Row is one method's timing.
type Table6Row struct {
	Method string
	AvgMS  float64
	MaxMS  float64
}

// Table6 measures average and maximum per-(q,t) inference time for the
// log-based methods and the exact knowledge-compilation algorithm.
func (s *Suite) Table6(w io.Writer) (Table6Result, error) {
	section(w, "Table 6: inference time per (query, output tuple) [ms]")
	c, _ := s.Corpus(dataset.IMDB)
	var out Table6Result
	add := func(method string, avg, max float64) {
		out.Rows = append(out.Rows, Table6Row{Method: method, AvgMS: avg, MaxMS: max})
	}
	for _, metric := range []string{"witness", "syntax"} {
		nq := s.Baseline(dataset.IMDB, metric, 3)
		r := Evaluate(c, nq, c.Test, s.Cfg.MaxEvalCases, 1)
		add(r.Method, r.AvgMS, r.MaxMS)
	}
	for _, cfg := range []core.ModelConfig{s.Cfg.Base, s.Cfg.Large} {
		m, _, err := s.Model(dataset.IMDB, cfg)
		if err != nil {
			return out, err
		}
		r := Evaluate(c, m, c.Test, s.Cfg.MaxEvalCases, 1)
		add(r.Method, r.AvgMS, r.MaxMS)
	}
	// Exact computation (knowledge compilation) over the same cases.
	var avg, max float64
	n := 0
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			if n >= s.Cfg.MaxEvalCases {
				break
			}
			start := time.Now()
			if _, _, err := shapley.Exact(cs.Tuple.Prov); err != nil {
				continue
			}
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			avg += ms
			if ms > max {
				max = ms
			}
			n++
		}
	}
	if n > 0 {
		avg /= float64(n)
	}
	add("Exact (knowledge compilation)", avg, max)
	fmt.Fprintf(w, "%-32s %10s %10s\n", "method", "avg [ms]", "max [ms]")
	for _, r := range out.Rows {
		fmt.Fprintf(w, "%-32s %10.3f %10.3f\n", r.Method, r.AvgMS, r.MaxMS)
	}
	return out, nil
}
