// Quickstart reproduces the paper's running example end to end: the movies
// database of Figure 1, the inference query q_inf of Figure 2a, provenance
// capture for the output tuple Alice, and exact Shapley computation — landing
// on the paper's exact values Shapley(c1) = 10/63 and Shapley(c2) = 19/252.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/paperdb"
	"repro/internal/shapley"
)

func main() {
	db, facts := paperdb.New()
	fmt.Println("Running example: movies database (Figure 1)")
	fmt.Printf("  %d facts across %v\n\n", db.NumFacts(), db.RelationNames())

	query := paperdb.MustParse(paperdb.QInf)
	fmt.Println("q_inf (Figure 2a):")
	fmt.Println(" ", query.SQL())

	res, err := engine.Evaluate(db, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nq_inf(D):")
	for _, t := range res.Tuples {
		fmt.Printf("  %s  lineage size %d\n", t, len(t.Lineage()))
	}

	for _, t := range res.Tuples {
		if t.Values[0].AsString() != "Alice" {
			continue
		}
		fmt.Println("\nProv(D, q_inf, Alice):")
		fmt.Println(" ", t.Prov)

		values, stats, err := shapley.Exact(t.Prov)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nExact Shapley values (decomposition tree of %d nodes):\n", stats.CircuitNodes)
		for rank, id := range values.Ranking() {
			fmt.Printf("  %2d. %-40s %.6f\n", rank+1, db.Fact(id), values[id])
		}
		fmt.Printf("\nPaper's Example 2.2 check:\n")
		fmt.Printf("  Shapley(c1=Universal) = %.6f (paper: 10/63  = %.6f)\n", values[facts.C[0].ID], 10.0/63.0)
		fmt.Printf("  Shapley(c2=Warner)    = %.6f (paper: 19/252 = %.6f)\n", values[facts.C[1].ID], 19.0/252.0)
	}
}
