package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/shapley/approx"
)

// exactLimit is the largest lineage whose ndcg10 reference is computed
// exactly; larger ones use the antithetic sampler at approx.GateSamples,
// because exact compilation past 40 facts can take seconds (9 s for one
// 152-fact Academic lineage).
const exactLimit = 40

// rankAnswer is the part of a /rank answer the checks read.
type rankAnswer struct {
	Facts []struct {
		ID    relation.FactID `json:"id"`
		Score float64         `json:"score"`
	} `json:"facts"`
}

// checkAnswer validates one /rank answer against the lineage the benchmark
// computed for the tuple: the ranked facts must be exactly the lineage, each
// once, with finite scores in non-increasing order. The checks hold for any
// correct ranker, learned or exact. It returns the scores for ndcg10.
func checkAnswer(data []byte, lineage []relation.FactID) (shapley.Values, error) {
	var a rankAnswer
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	want := make(map[relation.FactID]bool, len(lineage))
	for _, id := range lineage {
		want[id] = true
	}
	got := make(shapley.Values, len(a.Facts))
	for i, f := range a.Facts {
		if _, dup := got[f.ID]; dup {
			return nil, fmt.Errorf("fact %d is ranked twice", f.ID)
		}
		switch {
		case !want[f.ID]:
			return nil, fmt.Errorf("fact %d is not in the lineage", f.ID)
		case math.IsNaN(f.Score) || math.IsInf(f.Score, 0):
			return nil, fmt.Errorf("fact %d has score %v", f.ID, f.Score)
		case i > 0 && f.Score > a.Facts[i-1].Score:
			return nil, fmt.Errorf("score rises at rank %d", i+1)
		}
		got[f.ID] = f.Score
	}
	if len(got) != len(want) {
		return nil, fmt.Errorf("answer ranks %d facts, the lineage has %d", len(got), len(want))
	}
	return got, nil
}

// reference computes the Shapley values an answer's ndcg10 is measured
// against: exact up to exactLimit facts, sampled above.
func reference(b body) (shapley.Values, error) {
	if len(b.lineage) <= exactLimit {
		vals, _, err := shapley.Exact(b.t.Prov)
		return vals, err
	}
	amc := approx.MC{Samples: approx.GateSamples, Antithetic: true}
	return amc.Label(b.t.Prov, approx.DeriveSeed(1, uint64(b.query), uint64(b.tuple)))
}
