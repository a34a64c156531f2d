// Package dataset builds DBShap-style corpora: synthetic IMDB-like and
// Academic-like databases, a seeded SPJU query workload over them, and the
// offline labeling pipeline that evaluates each query, captures provenance,
// and computes exact Shapley values for every retained output tuple — the
// pipeline of the paper's Figure 6. The real DBShap is derived from IMDB and
// Microsoft Academic dumps; the synthetic substitution is documented in
// DESIGN.md.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// scaled returns a relation's cardinality at a database scale: base facts
// at scale 1, never fewer than 2.
func scaled(scale float64, base int) int {
	return max(int(float64(base)*scale), 2)
}

var firstNames = []string{
	"Alice", "Bob", "Carol", "David", "Brigitte", "Boris", "Lita", "Marco",
	"Nina", "Omar", "Priya", "Quentin", "Rosa", "Sven", "Tara", "Ulf",
	"Vera", "Walt", "Ximena", "Yann", "Zoe", "Amir", "Bella", "Chen",
}

var lastNames = []string{
	"Baron", "Stone", "Rivera", "Kim", "Okafor", "Novak", "Silva", "Haines",
	"Moreau", "Tanaka", "Weiss", "Iyer", "Costa", "Lund", "Petrov", "Adler",
}

var countries = []string{"USA", "USA", "USA", "UK", "France", "Germany", "Japan", "India"}

var titleWords = []string{
	"Shadow", "River", "Iron", "Silent", "Golden", "Last", "Midnight", "Lost",
	"Crimson", "Broken", "Hidden", "Winter", "Storm", "Glass", "Ember", "Hollow",
}

// zipfIndex draws an index in [0, n) with a Zipf-ish skew so some entities
// (popular actors, major studios) participate in many facts, as in real IMDB.
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Square a uniform draw: density ∝ 1/(2·sqrt(x)) favours small indexes.
	u := rng.Float64()
	return int(u * u * float64(n))
}

// GenIMDB builds the synthetic IMDB-like database:
//
//	companies(name, country)
//	movies(title, year, company)
//	actors(name, age)
//	roles(movie, actor)
func GenIMDB(seed int64, scale float64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	mustAdd(db, relation.MustSchema("companies",
		relation.Column{Name: "name", Type: relation.KindString},
		relation.Column{Name: "country", Type: relation.KindString}))
	mustAdd(db, relation.MustSchema("movies",
		relation.Column{Name: "title", Type: relation.KindString},
		relation.Column{Name: "year", Type: relation.KindInt},
		relation.Column{Name: "company", Type: relation.KindString}))
	mustAdd(db, relation.MustSchema("actors",
		relation.Column{Name: "name", Type: relation.KindString},
		relation.Column{Name: "age", Type: relation.KindInt}))
	mustAdd(db, relation.MustSchema("roles",
		relation.Column{Name: "movie", Type: relation.KindString},
		relation.Column{Name: "actor", Type: relation.KindString}))

	nCompanies := scaled(scale, 24)
	nMovies := scaled(scale, 130)
	nActors := scaled(scale, 90)
	nRoles := scaled(scale, 420)

	companies := make([]string, nCompanies)
	for i := range companies {
		companies[i] = fmt.Sprintf("Studio %s %d", titleWords[rng.Intn(len(titleWords))], i)
		db.MustInsert("companies", relation.Str(companies[i]), relation.Str(countries[rng.Intn(len(countries))]))
	}
	movies := make([]string, nMovies)
	for i := range movies {
		movies[i] = fmt.Sprintf("%s %s %d", titleWords[rng.Intn(len(titleWords))], titleWords[rng.Intn(len(titleWords))], i)
		year := 1980 + rng.Intn(44)
		db.MustInsert("movies", relation.Str(movies[i]), relation.Int(int64(year)),
			relation.Str(companies[zipfIndex(rng, nCompanies)]))
	}
	actors := make([]string, nActors)
	for i := range actors {
		actors[i] = fmt.Sprintf("%s %s %d", firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))], i)
		db.MustInsert("actors", relation.Str(actors[i]), relation.Int(int64(18+rng.Intn(62))))
	}
	seen := make(map[[2]int]bool, nRoles)
	for len(seen) < nRoles {
		m := zipfIndex(rng, nMovies)
		a := zipfIndex(rng, nActors)
		key := [2]int{m, a}
		if seen[key] {
			continue
		}
		seen[key] = true
		db.MustInsert("roles", relation.Str(movies[m]), relation.Str(actors[a]))
	}
	return db
}

func mustAdd(db *relation.Database, s *relation.Schema) {
	if _, err := db.AddRelation(s); err != nil {
		panic(err)
	}
}
