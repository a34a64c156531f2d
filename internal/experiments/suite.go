// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) over synthetic DBShap-style corpora. Each artifact
// has one entry point (Table1 ... Table6, Figure7 ... Figure12) that computes
// the result and renders rows shaped like the paper's. The per-experiment
// index in DESIGN.md maps artifacts to these functions and to the names
// `go run ./cmd/experiments -only <artifact>` selects them by.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// Config scales the whole experiment suite.
type Config struct {
	Seed             int64
	QueriesPerDB     int
	Scale            float64 // database size multiplier (dataset.Config.Scale)
	MaxCasesPerQuery int
	MaxEvalCases     int // cap on evaluated (q,t) pairs per split

	Base  core.ModelConfig
	Large core.ModelConfig
	// SweepFinetuneEpochs trims training in multi-model sweeps
	// (Table 4 / Figure 11) to keep wall-clock sane.
	SweepFinetuneEpochs int
	// Workers bounds the goroutines used for corpus building, training and
	// evaluation; <= 0 means one per CPU. Results are bit-identical for every
	// value (see internal/parallel). NewSuite copies it into the dataset and
	// model configs.
	Workers int
}

// BenchConfig is the scale of `go run ./cmd/experiments -bench`: minutes of
// CPU, every qualitative effect intact. It runs one worker per GOMAXPROCS.
func BenchConfig() Config {
	base := core.BaseConfig()
	base.FinetuneEpochs, base.FinetuneSamplesPerEpoch = 5, 1600
	large := core.LargeConfig()
	large.FinetuneEpochs, large.FinetuneSamplesPerEpoch = 5, 1600
	return Config{
		Seed:                1,
		QueriesPerDB:        36,
		Scale:               1,
		MaxCasesPerQuery:    10,
		MaxEvalCases:        80,
		Base:                base,
		Large:               large,
		SweepFinetuneEpochs: 3,
	}
}

// FullConfig is the larger configuration used by cmd/experiments; the numbers
// in EXPERIMENTS.md come from this scale.
func FullConfig() Config {
	c := BenchConfig()
	c.QueriesPerDB = 60
	c.Scale = 1.5
	c.MaxCasesPerQuery = 12
	c.MaxEvalCases = 150
	c.Base.PretrainEpochs = 3
	c.Base.PretrainPairsPerEpoch = 400
	c.Base.FinetuneEpochs = 6
	c.Base.FinetuneSamplesPerEpoch = 1500
	c.Large.PretrainEpochs = 3
	c.Large.PretrainPairsPerEpoch = 400
	c.Large.FinetuneEpochs = 6
	c.Large.FinetuneSamplesPerEpoch = 1500
	c.SweepFinetuneEpochs = 3
	return c
}

// Suite holds the two corpora, their similarity caches, and a cache of
// trained models so that experiments sharing a model train it once.
type Suite struct {
	Cfg      Config
	IMDB     *dataset.Corpus
	Academic *dataset.Corpus
	SimIMDB  *dataset.SimilarityCache
	SimAcad  *dataset.SimilarityCache

	models  map[string]*core.Model
	reports map[string]*core.TrainReport
}

// NewSuite builds both corpora (the offline pipeline of Figure 6).
func NewSuite(cfg Config) (*Suite, error) {
	done := obs.Span("experiments.corpora")
	defer done()
	cfg.Base.Workers = cfg.Workers
	cfg.Large.Workers = cfg.Workers
	s := &Suite{Cfg: cfg, models: make(map[string]*core.Model), reports: make(map[string]*core.TrainReport)}
	for _, kind := range []dataset.Kind{dataset.IMDB, dataset.Academic} {
		dc := dataset.DefaultConfig(kind)
		dc.Seed = cfg.Seed
		dc.NumQueries = cfg.QueriesPerDB
		dc.Scale = cfg.Scale
		dc.MaxCasesPerQuery = cfg.MaxCasesPerQuery
		dc.Workers = cfg.Workers
		c, err := dataset.Build(dc)
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s corpus: %w", kind, err)
		}
		if kind == dataset.IMDB {
			s.IMDB, s.SimIMDB = c, dataset.NewSimilarityCache(c)
		} else {
			s.Academic, s.SimAcad = c, dataset.NewSimilarityCache(c)
		}
	}
	return s, nil
}

// Corpus returns the corpus and similarity cache for a database kind.
func (s *Suite) Corpus(kind dataset.Kind) (*dataset.Corpus, *dataset.SimilarityCache) {
	if kind == dataset.Academic {
		return s.Academic, s.SimAcad
	}
	return s.IMDB, s.SimIMDB
}

// Model trains (or returns the cached) model for the given config over the
// full training split of a corpus.
func (s *Suite) Model(kind dataset.Kind, cfg core.ModelConfig) (*core.Model, *core.TrainReport, error) {
	key := kind.String() + "/" + cfg.Name
	if m, ok := s.models[key]; ok {
		return m, s.reports[key], nil
	}
	done := obs.Span("experiments.train:" + key)
	defer done()
	c, sims := s.Corpus(kind)
	m, report, err := core.Train(c, sims, cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	s.models[key] = m
	s.reports[key] = report
	return m, report, nil
}

// Baseline builds a Nearest Queries ranker for a corpus.
func (s *Suite) Baseline(kind dataset.Kind, metric string, n int) *baselines.NearestQueries {
	c, sims := s.Corpus(kind)
	return baselines.NewNearestQueries(c, sims, metric, n, nil)
}

// section prints an underlined heading.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}
