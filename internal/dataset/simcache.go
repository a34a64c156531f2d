package dataset

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/similarity"
)

// SimilarityCache memoizes pairwise query-similarity scores over a corpus.
// Rank-based similarity is by far the most expensive (Kendall tau over a
// bipartite tuple alignment), so all three metrics are memoized.
//
// The cache is safe for concurrent use: one RWMutex guards the per-metric
// maps keyed by the unordered query pair, and every metric is a pure function
// of the immutable corpus, so two goroutines racing on a miss compute the same
// value and the second store is a harmless overwrite. Call Precompute to move
// the expensive metrics off the training critical path entirely.
type SimilarityCache struct {
	c       *Corpus
	mu      sync.RWMutex
	metrics map[string]map[[2]int]float64

	// mHits/mMisses count lookups into the metrics registry installed at
	// construction time, or are nil no-op handles.
	mHits, mMisses *obs.Counter
}

// NewSimilarityCache returns an empty cache over the corpus.
func NewSimilarityCache(c *Corpus) *SimilarityCache {
	reg := obs.Metrics()
	return &SimilarityCache{
		c: c,
		metrics: map[string]map[[2]int]float64{
			"syntax":  make(map[[2]int]float64),
			"witness": make(map[[2]int]float64),
			"rank":    make(map[[2]int]float64),
		},
		mHits:   reg.Counter("dataset.simcache.hits"),
		mMisses: reg.Counter("dataset.simcache.misses"),
	}
}

func key(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// memo returns the cached score for (metric, pair), computing and storing it
// on a miss. The compute runs outside the lock so slow metrics never serialize
// unrelated lookups.
func (s *SimilarityCache) memo(metric string, k [2]int, compute func() float64) float64 {
	s.mu.RLock()
	v, ok := s.metrics[metric][k]
	s.mu.RUnlock()
	if ok {
		s.mHits.Add(1)
		return v
	}
	s.mMisses.Add(1)
	v = compute()
	s.mu.Lock()
	s.metrics[metric][k] = v
	s.mu.Unlock()
	return v
}

// Syntax returns sim_s between queries i and j of the corpus.
func (s *SimilarityCache) Syntax(i, j int) float64 {
	k := key(i, j)
	return s.memo("syntax", k, func() float64 {
		return similarity.Syntax(s.c.Queries[k[0]].Query, s.c.Queries[k[1]].Query)
	})
}

// Witness returns sim_w between queries i and j of the corpus.
func (s *SimilarityCache) Witness(i, j int) float64 {
	k := key(i, j)
	return s.memo("witness", k, func() float64 {
		return similarity.Witness(s.c.Queries[k[0]].Witness, s.c.Queries[k[1]].Witness)
	})
}

// Rank returns sim_r between queries i and j of the corpus, computed over
// the configured per-query tuple cap.
func (s *SimilarityCache) Rank(i, j int) float64 {
	k := key(i, j)
	return s.memo("rank", k, func() float64 {
		cap := s.c.Config.RankTuples
		return similarity.RankBased(s.c.Queries[k[0]].Rankings(cap), s.c.Queries[k[1]].Rankings(cap))
	})
}

// ByMetric returns the similarity function for a metric name: "syntax",
// "witness" or "rank".
func (s *SimilarityCache) ByMetric(metric string) func(i, j int) float64 {
	switch metric {
	case "witness":
		return s.Witness
	case "rank":
		return s.Rank
	default:
		return s.Syntax
	}
}

// Precompute fills the cache for every unordered query pair over idx, for the
// given metrics (all three when none are named), computing pairs across
// workers. Subsequent lookups of those pairs are read-locked hits, so
// training loops touch no expensive similarity code on their critical path.
func (s *SimilarityCache) Precompute(workers int, idx []int, metrics ...string) {
	if len(metrics) == 0 {
		metrics = []string{"syntax", "witness", "rank"}
	}
	seen := make(map[[2]int]bool)
	var pairs [][2]int
	for _, i := range idx {
		for _, j := range idx {
			k := key(i, j)
			if !seen[k] {
				seen[k] = true
				pairs = append(pairs, k)
			}
		}
	}
	parallel.ForEach(workers, len(pairs), func(p int) {
		for _, metric := range metrics {
			s.ByMetric(metric)(pairs[p][0], pairs[p][1])
		}
	})
	obs.Debugf("dataset: similarity cache precomputed %d pairs x %d metrics\n", len(pairs), len(metrics))
}
