package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/shapley/approx"
	"repro/internal/similarity"
	"repro/internal/sqlparse"
)

// Kind selects which synthetic database a corpus is built over.
type Kind int

const (
	IMDB Kind = iota
	Academic
)

// String returns the database name as the paper spells it.
func (k Kind) String() string {
	if k == Academic {
		return "Academic"
	}
	return "IMDB"
}

// ParseKind returns the database a command-line name selects: "imdb" or
// "academic", spelled exactly so.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "imdb":
		return IMDB, nil
	case "academic":
		return Academic, nil
	}
	return 0, fmt.Errorf("dataset: unknown database %q (want imdb, academic)", name)
}

// Config parameterizes corpus construction. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	Kind             Kind
	Seed             int64
	Scale            float64 // multiplies every relation's cardinality; 1 is the bench scale
	NumQueries       int
	MaxCasesPerQuery int // output tuples labeled with Shapley values
	// Workers bounds the goroutines used to evaluate and Shapley-label the
	// workload; <= 0 means one per CPU. The corpus is bit-identical for every
	// worker count — and to a fully serial build — because all RNG draws stay
	// on the main goroutine in the serial order (the fallback sampler derives
	// its RNG stream from Seed per tuple, off no goroutine at all).
	Workers int
	// LabelFallback labels the tuples exact labeling refuses (lineages over
	// maxLineage facts, or past the limits behind shapley.ErrBudget) with the
	// amc sampler. Off, such tuples are dropped.
	LabelFallback bool
}

const (
	maxResults = 300 // acceptance cap on a workload query's result cardinality
	maxLineage = 100 // exact labeling skips larger lineages
	rankTuples = 8   // tuples per query used by rank-based similarity
)

// DefaultConfig returns the bench-scale configuration for a database kind.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind:             kind,
		Seed:             1,
		Scale:            1,
		NumQueries:       40,
		MaxCasesPerQuery: 12,
	}
}

// LabelStats summarizes one build's labeling outcomes — the numbers
// dbshap-gen prints as its labeling summary and records in the run manifest.
type LabelStats struct {
	Labeled  int // cases labeled, total
	Exact    int // labeled by the exact engine
	Fallback int // exact refused the lineage; labeled by the fallback sampler
	Skipped  int // exact refused and no fallback configured — tuple dropped
}

// Case is one labeled (query, output tuple) pair: the tuple, its provenance
// (inside the tuple), and the exact Shapley value of every lineage fact.
type Case struct {
	Tuple *engine.OutputTuple
	Gold  shapley.Values
}

// QueryEntry is one query of the log with everything the experiments need.
type QueryEntry struct {
	ID        int
	SQL       string
	Query     *sqlparse.Query
	Result    *engine.Result
	Witness   map[string]bool
	Cases     []Case
	NumTables int
	// TotalFacts is Σ over all result tuples of their lineage size — the
	// "contributing facts" count of Table 1.
	TotalFacts int
}

// Rankings returns the per-tuple fact rankings used by rank-based similarity:
// those of the first rankTuples cases.
func (q *QueryEntry) Rankings() []similarity.TupleRanking {
	n := min(len(q.Cases), rankTuples)
	out := make([]similarity.TupleRanking, n)
	for i := 0; i < n; i++ {
		out[i] = similarity.TupleRanking{TupleKey: q.Cases[i].Tuple.Key(), Scores: q.Cases[i].Gold}
	}
	return out
}

// Corpus is a DBShap-style labeled query log with its train/dev/test split.
type Corpus struct {
	Config  Config
	DB      *relation.Database
	Queries []*QueryEntry
	Labels  LabelStats
	Train   []int
	Dev     []int
	Test    []int
}

// Build generates the database, the workload, and the Shapley labels — the
// offline pipeline of Figure 6. Deterministic in Config.Seed alone: the output
// is bit-identical for every Config.Workers value because every RNG draw
// happens on the main goroutine in the serial order. Parallelism covers the
// two RNG-free phases — query evaluation and Shapley labeling — with the
// per-query tuple permutations drawn serially in between.
func Build(cfg Config) (*Corpus, error) {
	buildDone := obs.Span("dataset.build:" + cfg.Kind.String())
	defer buildDone()
	rng := rand.New(rand.NewSource(cfg.Seed))
	genDone := obs.Span("generate")
	var db *relation.Database
	var templates []template
	switch cfg.Kind {
	case IMDB:
		db = GenIMDB(cfg.Seed+1000, cfg.Scale)
		templates = imdbTemplates()
	case Academic:
		db = GenAcademic(cfg.Seed+2000, cfg.Scale)
		templates = academicTemplates()
	default:
		return nil, fmt.Errorf("dataset: unknown kind %d", cfg.Kind)
	}
	sqls, err := GenerateWorkload(db, templates, cfg.NumQueries, maxResults, rng)
	genDone()
	if err != nil {
		return nil, err
	}
	c := &Corpus{Config: cfg, DB: db}
	c.Queries = make([]*QueryEntry, len(sqls))
	// Phase 1 (parallel, RNG-free): parse and evaluate every query.
	evalDone := obs.Span("evaluate")
	err = parallel.ForEachErr(cfg.Workers, len(sqls), func(i int) error {
		entry, err := evalEntry(db, i, sqls[i])
		if err != nil {
			return err
		}
		c.Queries[i] = entry
		return nil
	})
	evalDone()
	if err != nil {
		return nil, err
	}
	// Phase 2 (serial): draw each query's tuple-sampling permutation from the
	// main RNG in query order — the exact draw sequence of a serial build.
	perms := make([][]int, len(c.Queries))
	for i, entry := range c.Queries {
		perms[i] = rng.Perm(len(entry.Result.Tuples))
	}
	// Phase 3 (parallel, main-RNG-free): Shapley labeling per query. The
	// fallback sampler draws from per-tuple seeds derived from (Seed, query
	// ID, tuple index) — a pure function — so this phase stays bit-identical
	// across worker counts too.
	labelDone := obs.Span("shapley.label")
	stats := parallel.Map(cfg.Workers, len(c.Queries), func(i int) LabelStats {
		return labelEntry(c.Queries[i], cfg, perms[i])
	})
	labelDone()
	for _, s := range stats {
		c.Labels.Labeled += s.Labeled
		c.Labels.Exact += s.Exact
		c.Labels.Fallback += s.Fallback
		c.Labels.Skipped += s.Skipped
	}
	c.split(rng)
	if reg := obs.Metrics(); reg != nil {
		// Lowercased to satisfy the obs metric-naming lint (obs.LintMetricName).
		kind := strings.ToLower(cfg.Kind.String())
		reg.Gauge("dataset.corpus." + kind + ".queries").Set(float64(len(c.Queries)))
		reg.Gauge("dataset.corpus." + kind + ".cases").Set(float64(c.Labels.Labeled))
		reg.Gauge("dataset.corpus." + kind + ".facts").Set(float64(db.NumFacts()))
		reg.Gauge("dataset.corpus." + kind + ".label_fallbacks").Set(float64(c.Labels.Fallback))
		reg.Gauge("dataset.corpus." + kind + ".label_skipped").Set(float64(c.Labels.Skipped))
	}
	return c, nil
}

// evalEntry parses and evaluates one workload query.
func evalEntry(db *relation.Database, id int, sql string) (*QueryEntry, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("dataset: re-parse %q: %w", sql, err)
	}
	res, err := engine.Evaluate(db, q)
	if err != nil {
		return nil, fmt.Errorf("dataset: evaluate %q: %w", sql, err)
	}
	entry := &QueryEntry{
		ID:        id,
		SQL:       sql,
		Query:     q,
		Result:    res,
		Witness:   res.WitnessKeys(),
		NumTables: len(q.Tables()),
	}
	for _, t := range res.Tuples {
		entry.TotalFacts += len(t.Lineage())
	}
	return entry, nil
}

// labelEntry Shapley-labels one query's sampled tuples in the pre-drawn
// permutation order. Tuples with several derivations have a non-uniform
// Shapley profile and carry the ranking signal, so they are labeled first;
// single-derivation tuples (where every fact ties at 1/n and any ranking is
// perfect) only fill remaining capacity.
//
// shapley.Exact labels every tuple of at most maxLineage facts. The tuples
// it refuses and those over maxLineage go to the amc sampler when
// cfg.LabelFallback is set and are dropped otherwise.
func labelEntry(entry *QueryEntry, cfg Config, perm []int) LabelStats {
	var stats LabelStats
	res := entry.Result
	for _, interesting := range []bool{true, false} {
		for _, ti := range perm {
			if len(entry.Cases) >= cfg.MaxCasesPerQuery {
				break
			}
			t := res.Tuples[ti]
			if (len(t.Prov.Monomials) >= 2) != interesting {
				continue
			}
			var gold shapley.Values
			err := shapley.ErrBudget // exact is not tried past maxLineage
			if len(t.Lineage()) <= maxLineage {
				gold, _, err = shapley.Exact(t.Prov)
			}
			switch {
			case err == nil:
				stats.Exact++
			case cfg.LabelFallback:
				seed := approx.DeriveSeed(uint64(cfg.Seed), uint64(entry.ID), uint64(ti))
				gold, _ = approx.MC{Samples: approx.DefaultSamples}.Label(t.Prov, seed) // never fails
				stats.Fallback++
			default:
				stats.Skipped++
				continue
			}
			entry.Cases = append(entry.Cases, Case{Tuple: t, Gold: gold})
			stats.Labeled++
		}
	}
	return stats
}

// split shuffles query indices into 70/10/20 train/dev/test, the paper's
// protocol.
func (c *Corpus) split(rng *rand.Rand) {
	perm := rng.Perm(len(c.Queries))
	n := len(perm)
	nTrain := n * 70 / 100
	nDev := n * 10 / 100
	if nDev == 0 && n >= 3 {
		nDev = 1
	}
	c.Train = append([]int(nil), perm[:nTrain]...)
	c.Dev = append([]int(nil), perm[nTrain:nTrain+nDev]...)
	c.Test = append([]int(nil), perm[nTrain+nDev:]...)
}

// SplitStats are the Table 1 statistics of one split.
type SplitStats struct {
	Queries int
	Results int
	Facts   int
}

// Stats computes Table 1 rows for the given split indices.
func (c *Corpus) Stats(split []int) SplitStats {
	var s SplitStats
	for _, qi := range split {
		q := c.Queries[qi]
		s.Queries++
		s.Results += len(q.Result.Tuples)
		s.Facts += q.TotalFacts
	}
	return s
}

// TrainFactIDs returns the set of facts appearing in the lineage of any
// labeled training case; the complement on test cases is the "unseen facts"
// population of Section 5.7.
func (c *Corpus) TrainFactIDs() map[relation.FactID]bool {
	seen := make(map[relation.FactID]bool)
	for _, qi := range c.Train {
		for _, cs := range c.Queries[qi].Cases {
			for id := range cs.Gold {
				seen[id] = true
			}
		}
	}
	return seen
}
