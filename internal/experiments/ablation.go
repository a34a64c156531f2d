package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/shapley"
)

// ShapleyAblation compares the Shapley computation strategies of the
// provenance substrate on the IMDB test workload: exact knowledge
// compilation, brute-force enumeration (where feasible), and the CNF-proxy
// heuristic. It reports runtime and, for the proxy, ranking quality against
// the exact values — the trade-off the paper's Section 6 discusses for the
// methods of Deutch et al.
func ShapleyAblation(s *Suite, w io.Writer) error {
	c, _ := s.Corpus(dataset.IMDB)
	var exactMS, bruteMS, proxyMS float64
	var exactN, bruteN, proxyN int
	var proxyNDCG []float64
	for _, qi := range c.Test {
		for _, cs := range c.Queries[qi].Cases {
			prov := cs.Tuple.Prov

			start := time.Now()
			gold, _, err := shapley.Exact(prov)
			if err != nil {
				continue
			}
			exactMS += msSince(start)
			exactN++

			if len(prov.Lineage()) <= 18 {
				start = time.Now()
				if _, err := shapley.BruteForce(prov); err == nil {
					bruteMS += msSince(start)
					bruteN++
				}
			}

			start = time.Now()
			proxy := shapley.CNFProxy(prov)
			proxyMS += msSince(start)
			proxyN++
			proxyNDCG = append(proxyNDCG, metrics.NDCGAtK(proxy, gold, 10))
		}
	}
	if exactN > 0 {
		exactMS /= float64(exactN)
	}
	if bruteN > 0 {
		bruteMS /= float64(bruteN)
	}
	if proxyMS > 0 && proxyN > 0 {
		proxyMS /= float64(proxyN)
	}
	fmt.Fprintf(w, "%-28s %12s %10s %8s\n", "algorithm", "avg [ms]", "cases", "NDCG@10")
	fmt.Fprintf(w, "%-28s %12.4f %10d %8s\n", "exact (decomposition tree)", exactMS, exactN, "1.000")
	fmt.Fprintf(w, "%-28s %12.4f %10d %8s\n", "brute force (≤18 facts)", bruteMS, bruteN, "1.000")
	fmt.Fprintf(w, "%-28s %12.4f %10d %8.3f\n", "CNF proxy (inexact)", proxyMS, proxyN, metrics.Mean(proxyNDCG))
	return nil
}

// msSince returns the milliseconds since t at full clock resolution: the
// proxy takes under a microsecond per lineage here, which whole microseconds
// would round to 0.
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
