// Package core implements LearnShapley, the paper's primary contribution: a
// pre-trained/fine-tuned transformer model that, given an SPJU query, an
// output tuple of interest and the tuple's lineage, ranks the lineage facts
// by their predicted (hidden) Shapley contribution.
//
// Training has two stages (Section 3.3):
//
//  1. Pre-training: the encoder reads token pairs [CLS] q [SEP] q' [SEP] and
//     three regression heads on the [CLS] state predict sim_syntax, sim_witness
//     and sim_rank. The loss is the equal-weight sum of the three head losses.
//     The checkpoint with the lowest dev MSE is kept.
//  2. Fine-tuning: the encoder reads [CLS] q [SEP] t [SEP] f [SEP] and a
//     single head predicts the (scaled) Shapley value of fact f with respect
//     to (q, t). The checkpoint with the highest dev NDCG@10 is kept.
//
// At inference, Rank scores every lineage fact with the fine-tuned encoder —
// the facts of a lineage share one encoded prefix and are packed into a few
// encoder passes — and orders them by predicted value.
package core

import (
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/sqlparse"
)

// Input is one ranking request: a query, an output tuple of interest, and the
// tuple's lineage. Witness keys are optional and only consulted by rankers
// that need result overlap (e.g. the witness-based Nearest Queries baseline);
// LearnShapley itself needs only SQL, tuple values and lineage.
type Input struct {
	SQL         string
	Query       *sqlparse.Query
	TupleValues []relation.Value
	Lineage     []relation.FactID
	Witness     map[string]bool
}

// Ranker is anything that can rank the facts of a lineage: LearnShapley, the
// Nearest Queries baselines, or the exact algorithm itself.
type Ranker interface {
	// Name identifies the method in experiment tables.
	Name() string
	// Rank returns a predicted score per lineage fact; higher means more
	// contribution. Scores are comparable within one call only.
	Rank(in Input) shapley.Values
}

// ConcurrentRanker is a Ranker that supports data-parallel evaluation.
// RankerReplica returns a ranker whose Rank may run on another goroutine
// concurrently with the parent and with other replicas. A replica must
// produce bit-identical scores to its parent for the same input, so fanning
// cases out across replicas and reducing in case order is deterministic. A
// ranker whose Rank is already safe for concurrent use may return itself.
type ConcurrentRanker interface {
	Ranker
	RankerReplica() Ranker
}
