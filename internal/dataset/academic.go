package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

var domains = []string{
	"Databases", "Software Engineering", "Machine Learning", "Networks",
	"Security", "Theory", "Graphics", "Systems",
}

var confPrefixes = []string{"Symposium on", "Conference on", "Workshop on", "Intl Meeting on"}

// GenAcademic builds the synthetic Academic-like database, following the
// schema the paper's Figure 8a query exercises:
//
//	organization(name, country)
//	author(name, org, paper_count, citation_count)
//	conference(name, domain_count)
//	domain(name)
//	domain_conference(conf, domain)
//	publication(title, year, conf)
//	writes(author, pub)
func GenAcademic(seed int64, scale float64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	mustAdd(db, relation.MustSchema("organization",
		relation.Column{Name: "name", Type: relation.KindString},
		relation.Column{Name: "country", Type: relation.KindString}))
	mustAdd(db, relation.MustSchema("author",
		relation.Column{Name: "name", Type: relation.KindString},
		relation.Column{Name: "org", Type: relation.KindString},
		relation.Column{Name: "paper_count", Type: relation.KindInt},
		relation.Column{Name: "citation_count", Type: relation.KindInt}))
	mustAdd(db, relation.MustSchema("conference",
		relation.Column{Name: "name", Type: relation.KindString},
		relation.Column{Name: "domain_count", Type: relation.KindInt}))
	mustAdd(db, relation.MustSchema("domain",
		relation.Column{Name: "name", Type: relation.KindString}))
	mustAdd(db, relation.MustSchema("domain_conference",
		relation.Column{Name: "conf", Type: relation.KindString},
		relation.Column{Name: "domain", Type: relation.KindString}))
	mustAdd(db, relation.MustSchema("publication",
		relation.Column{Name: "title", Type: relation.KindString},
		relation.Column{Name: "year", Type: relation.KindInt},
		relation.Column{Name: "conf", Type: relation.KindString}))
	mustAdd(db, relation.MustSchema("writes",
		relation.Column{Name: "author", Type: relation.KindString},
		relation.Column{Name: "pub", Type: relation.KindString}))

	nOrgs := scaled(scale, 16)
	nAuthors := scaled(scale, 70)
	nConfs := scaled(scale, 20)
	nPubs := scaled(scale, 150)
	nWrites := scaled(scale, 320)

	orgs := make([]string, nOrgs)
	for i := range orgs {
		orgs[i] = fmt.Sprintf("University of %s %d", titleWords[rng.Intn(len(titleWords))], i)
		db.MustInsert("organization", relation.Str(orgs[i]), relation.Str(countries[rng.Intn(len(countries))]))
	}
	for _, d := range domains {
		db.MustInsert("domain", relation.Str(d))
	}
	confs := make([]string, nConfs)
	for i := range confs {
		confs[i] = fmt.Sprintf("%s %s %d", confPrefixes[rng.Intn(len(confPrefixes))], domains[rng.Intn(len(domains))], i)
		nd := 1 + rng.Intn(2)
		db.MustInsert("conference", relation.Str(confs[i]), relation.Int(int64(nd)))
		picked := rng.Perm(len(domains))[:nd]
		for _, di := range picked {
			db.MustInsert("domain_conference", relation.Str(confs[i]), relation.Str(domains[di]))
		}
	}
	authors := make([]string, nAuthors)
	for i := range authors {
		authors[i] = fmt.Sprintf("%s %s %d", firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))], i)
		papers := 1 + zipfIndex(rng, 200)
		citations := papers * (1 + rng.Intn(60))
		db.MustInsert("author", relation.Str(authors[i]), relation.Str(orgs[zipfIndex(rng, nOrgs)]),
			relation.Int(int64(papers)), relation.Int(int64(citations)))
	}
	pubs := make([]string, nPubs)
	for i := range pubs {
		pubs[i] = fmt.Sprintf("On %s %s Methods %d", titleWords[rng.Intn(len(titleWords))], domains[rng.Intn(len(domains))], i)
		db.MustInsert("publication", relation.Str(pubs[i]), relation.Int(int64(2000+rng.Intn(24))),
			relation.Str(confs[zipfIndex(rng, nConfs)]))
	}
	seen := make(map[[2]int]bool, nWrites)
	for len(seen) < nWrites {
		a := zipfIndex(rng, nAuthors)
		p := zipfIndex(rng, nPubs)
		key := [2]int{a, p}
		if seen[key] {
			continue
		}
		seen[key] = true
		db.MustInsert("writes", relation.Str(authors[a]), relation.Str(pubs[p]))
	}
	return db
}
