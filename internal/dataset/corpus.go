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
	Scale            Scale
	NumQueries       int
	MaxResults       int // acceptance cap on result cardinality
	MaxCasesPerQuery int // output tuples labeled with exact Shapley values
	MaxLineage       int // tuples with larger lineages are not labeled
	RankTuples       int // tuples per query used by rank-based similarity
	// Workers bounds the goroutines used to evaluate and Shapley-label the
	// workload; <= 0 means one per CPU. The corpus is bit-identical for every
	// worker count — and to a fully serial build — because all RNG draws stay
	// on the main goroutine in the serial order (sampling labelers derive
	// their RNG streams from LabelSeed per tuple, off no goroutine at all).
	Workers int
	// Labeler names the engine labeling every candidate tuple: "exact" (or
	// empty, the default) or the "amc" sampler. The sampler has no
	// lineage-size limit, so under it MaxLineage does not apply and no tuple
	// is dropped for size.
	Labeler string
	// LabelSamples is the per-lineage permutation budget for the sampler;
	// <= 0 selects approx.DefaultSamples.
	LabelSamples int
	// LabelSeed is the base seed for sampler randomness. Each tuple's engine
	// seed is derived from (LabelSeed, query ID, tuple index), so labels are
	// independent of both worker count and labeling order.
	LabelSeed uint64
	// LabelFallback names the sampler that labels a tuple the exact engine
	// refuses (lineage over MaxLineage, or past the limits behind
	// shapley.ErrBudget).
	// Empty preserves the historical behavior: such tuples are dropped.
	LabelFallback string
}

// DefaultConfig returns the bench-scale configuration for a database kind.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind:             kind,
		Seed:             1,
		Scale:            Scale{Base: 1},
		NumQueries:       40,
		MaxResults:       300,
		MaxCasesPerQuery: 12,
		MaxLineage:       100,
		RankTuples:       8,
		Labeler:          "exact",
		LabelSeed:        1,
	}
}

// LabelStats summarizes one build's labeling outcomes — the numbers
// dbshap-gen prints as its labeling summary and records in the run manifest.
type LabelStats struct {
	Labeled  int // cases labeled, total
	Exact    int // labeled by the exact engine
	Sampled  int // labeled by the configured primary sampler
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

// Rankings returns the per-tuple fact rankings used by rank-based similarity,
// capped at the configured number of tuples.
func (q *QueryEntry) Rankings(cap int) []similarity.TupleRanking {
	n := len(q.Cases)
	if cap > 0 && n > cap {
		n = cap
	}
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
	sqls, err := GenerateWorkload(db, templates, cfg.NumQueries, cfg.MaxResults, rng)
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
	// Phase 3 (parallel, main-RNG-free): Shapley labeling per query through
	// the configured engine. Sampling engines draw from per-tuple seeds
	// derived from (LabelSeed, query ID, tuple index) — a pure function — so
	// this phase stays bit-identical across worker counts too.
	primary, err := approx.Parse(cfg.Labeler, cfg.LabelSamples)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var fallback approx.Labeler
	if cfg.LabelFallback != "" {
		fallback, err = approx.Parse(cfg.LabelFallback, cfg.LabelSamples)
		if err != nil {
			return nil, fmt.Errorf("dataset: label fallback: %w", err)
		}
		if fallback.Name() == "exact" {
			return nil, fmt.Errorf("dataset: label fallback must be a sampler, not %q", cfg.LabelFallback)
		}
	}
	labelDone := obs.Span("shapley.label")
	stats := parallel.Map(cfg.Workers, len(c.Queries), func(i int) LabelStats {
		return labelEntry(c.Queries[i], cfg, perms[i], primary, fallback)
	})
	labelDone()
	for _, s := range stats {
		c.Labels.Labeled += s.Labeled
		c.Labels.Exact += s.Exact
		c.Labels.Sampled += s.Sampled
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
// With the exact engine, lineages over MaxLineage (or past the exact
// engine's limits) go to the fallback sampler when one is configured and are
// dropped otherwise — the historical behavior. A sampler as the primary
// engine has no size limit: every candidate tuple is labeled.
func labelEntry(entry *QueryEntry, cfg Config, perm []int, primary, fallback approx.Labeler) LabelStats {
	var stats LabelStats
	res := entry.Result
	exactPrimary := primary.Name() == "exact"
	for _, interesting := range []bool{true, false} {
		for _, ti := range perm {
			if len(entry.Cases) >= cfg.MaxCasesPerQuery {
				break
			}
			t := res.Tuples[ti]
			if (len(t.Prov.Monomials) >= 2) != interesting {
				continue
			}
			seed := approx.DeriveSeed(cfg.LabelSeed, uint64(entry.ID), uint64(ti))
			eng := primary
			viaFallback := false
			if exactPrimary && len(t.Lineage()) > cfg.MaxLineage {
				if fallback == nil {
					stats.Skipped++
					continue
				}
				eng, viaFallback = fallback, true
			}
			gold, err := eng.Label(t.Prov, seed)
			if err != nil && exactPrimary && !viaFallback && fallback != nil {
				eng, viaFallback = fallback, true
				gold, err = eng.Label(t.Prov, seed)
			}
			if err != nil {
				stats.Skipped++
				continue
			}
			entry.Cases = append(entry.Cases, Case{Tuple: t, Gold: gold})
			stats.Labeled++
			switch {
			case viaFallback:
				stats.Fallback++
			case exactPrimary:
				stats.Exact++
			default:
				stats.Sampled++
			}
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
