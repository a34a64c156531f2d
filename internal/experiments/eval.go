package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// CaseScore is the evaluation of one (query, output tuple) pair.
type CaseScore struct {
	QueryIdx    int
	CaseIdx     int
	NDCG10      float64
	P1, P3, P5  float64
	LineageSize int
	NumTables   int
	InferenceMS float64
}

// EvalResult aggregates ranking quality over a split.
type EvalResult struct {
	Method   string
	NDCG10   float64
	P1       float64
	P3       float64
	P5       float64
	PerCase  []CaseScore
	AvgMS    float64
	MaxMS    float64
	NumCases int
}

// inputFor assembles the Ranker input of a labeled corpus case.
func inputFor(c *dataset.Corpus, qi int, cs dataset.Case) core.Input {
	return core.Input{
		SQL:         c.Queries[qi].SQL,
		Query:       c.Queries[qi].Query,
		TupleValues: cs.Tuple.Values,
		Lineage:     cs.Tuple.Lineage(),
		Witness:     c.Queries[qi].Witness,
	}
}

// Evaluate scores a ranker over the labeled cases of the given query split,
// capped at maxCases pairs (0 = every case). Cases are ranked across workers
// when the ranker supports replicas (core.ConcurrentRanker) and summed in case
// order, so the result is identical for every worker count and equals
// metrics.Mean over the per-case scores; pass workers=1 when per-case
// inference timings must not share the machine (Table 6).
func Evaluate(c *dataset.Corpus, r core.Ranker, split []int, maxCases, workers int) EvalResult {
	res := EvalResult{Method: r.Name()}
	// Flatten the split into (query, case) refs, respecting the cap.
	type ref struct{ qi, ci int }
	var refs []ref
	for _, qi := range split {
		for ci := range c.Queries[qi].Cases {
			if maxCases > 0 && len(refs) >= maxCases {
				break
			}
			refs = append(refs, ref{qi, ci})
		}
	}
	// One ranker per worker slot: slot 0 is the ranker itself, the rest are
	// replicas. Rankers without replica support evaluate serially.
	workers = parallel.Workers(workers)
	cr, concurrent := r.(core.ConcurrentRanker)
	if !concurrent {
		workers = 1
	}
	rankers := make([]core.Ranker, workers)
	rankers[0] = r
	for w := 1; w < workers; w++ {
		rankers[w] = cr.RankerReplica()
	}
	res.PerCase = make([]CaseScore, len(refs))
	parallel.ForEachWorker(workers, len(refs), func(w, i int) {
		qi, ci := refs[i].qi, refs[i].ci
		q := c.Queries[qi]
		cs := q.Cases[ci]
		in := inputFor(c, qi, cs)
		start := time.Now()
		pred := rankers[w].Rank(in)
		elapsed := float64(time.Since(start).Microseconds()) / 1000.0
		res.PerCase[i] = CaseScore{
			QueryIdx:    qi,
			CaseIdx:     ci,
			NDCG10:      metrics.NDCGAtK(pred, cs.Gold, 10),
			P1:          metrics.PrecisionAtK(pred, cs.Gold, 1),
			P3:          metrics.PrecisionAtK(pred, cs.Gold, 3),
			P5:          metrics.PrecisionAtK(pred, cs.Gold, 5),
			LineageSize: len(cs.Gold),
			NumTables:   q.NumTables,
			InferenceMS: elapsed,
		}
	})
	if reg := obs.Metrics(); reg != nil {
		reg.Counter("experiments.eval.cases").Add(int64(len(refs)))
		h := reg.Histogram("experiments.eval.inference_ms", obs.ExpBuckets(0.25, 2, 12))
		for _, score := range res.PerCase {
			h.Observe(score.InferenceMS)
		}
	}
	for _, score := range res.PerCase {
		res.NDCG10 += score.NDCG10
		res.P1 += score.P1
		res.P3 += score.P3
		res.P5 += score.P5
		res.AvgMS += score.InferenceMS
		if score.InferenceMS > res.MaxMS {
			res.MaxMS = score.InferenceMS
		}
		res.NumCases++
	}
	if res.NumCases > 0 {
		n := float64(res.NumCases)
		res.NDCG10 /= n
		res.P1 /= n
		res.P3 /= n
		res.P5 /= n
		res.AvgMS /= n
	}
	return res
}
