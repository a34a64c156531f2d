// Package pipeline is the front end cmd/learnshap and cmd/serve share: one
// definition of their corpus flags and of the step that builds the corpus.
// learnshap adds the model flags and the step that loads or trains the model
// and saves it. Every command parses its command line through Parse.
package pipeline

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// CorpusFlags are the corpus flags after parsing.
type CorpusFlags struct {
	db      dbFlag
	queries int
	cases   int
	seed    int64
	// Workers bounds the goroutines of corpus building, training and
	// evaluation; serve also scores this many requests at once.
	Workers int
}

// AddCorpusFlags registers the corpus flags on fs, with the command's default
// database and corpus size.
func AddCorpusFlags(fs *flag.FlagSet, db string, queries, cases int) *CorpusFlags {
	c := &CorpusFlags{}
	if err := c.db.Set(db); err != nil {
		panic(err) // the command's own default
	}
	fs.Var(&c.db, "db", "database `name`: imdb or academic")
	fs.IntVar(&c.queries, "queries", queries, "queries in the corpus")
	fs.IntVar(&c.cases, "cases", cases, "labeled cases per query")
	fs.Int64Var(&c.seed, "seed", 1, "corpus seed")
	fs.IntVar(&c.Workers, "workers", 0, "worker goroutines for corpus building, training, evaluation and scoring (0 = one per CPU); results are identical for every value")
	return c
}

// Flags are the corpus and model flags after parsing.
type Flags struct {
	*CorpusFlags
	model   modelFlag
	dim     int
	layers  int
	epochs  int
	samples int
	pepochs int
	ppairs  int
	load    string
	save    string
}

// AddFlags registers the corpus and model flags on fs, with the command's
// default database and corpus size.
func AddFlags(fs *flag.FlagSet, db string, queries, cases int) *Flags {
	f := &Flags{CorpusFlags: AddCorpusFlags(fs, db, queries, cases), model: "base"}
	fs.Var(&f.model, "model", "model `preset`: base, large, no-pretrain, or small")
	fs.IntVar(&f.dim, "dim", 0, "override model dim (0 = model default; FFN hidden follows as 2*dim)")
	fs.IntVar(&f.layers, "layers", 0, "override encoder layers (0 = model default)")
	fs.IntVar(&f.epochs, "epochs", -1, "override fine-tune epochs (-1 = model default)")
	fs.IntVar(&f.samples, "samples", 0, "override fine-tune samples per epoch (0 = model default)")
	fs.IntVar(&f.pepochs, "pepochs", -1, "override pre-training epochs (-1 = model default, 0 = no pre-training)")
	fs.IntVar(&f.ppairs, "ppairs", 0, "override pre-training pairs per epoch (0 = model default)")
	fs.StringVar(&f.load, "load", "", "load this gob checkpoint instead of training")
	fs.StringVar(&f.save, "save", "", "write the model to this file (a checkpoint for -load)")
	return f
}

// Parse parses the command line into flag.CommandLine like flag.Parse, and
// exits with status 2, as the flag package does for a bad flag, when an
// argument is left over.
func Parse() {
	if err := ParseArgs(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}
}

// ParseArgs parses args into fs and fails naming the arguments left over. The
// flag package stops at the first argument that is not a flag, so without
// this check every flag after a stray word would be dropped silently.
func ParseArgs(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: flags after a non-flag argument are not parsed", fs.Args())
	}
	return nil
}

// dbFlag is -db: a database name dataset.ParseKind accepts.
type dbFlag struct {
	name string
	kind dataset.Kind
}

func (d *dbFlag) String() string { return d.name }

func (d *dbFlag) Set(name string) error {
	kind, err := dataset.ParseKind(name)
	if err != nil {
		return err
	}
	*d = dbFlag{name, kind}
	return nil
}

// presets maps each -model name to its configuration.
var presets = map[string]func() core.ModelConfig{
	"base":        core.BaseConfig,
	"large":       core.LargeConfig,
	"no-pretrain": core.NoPretrainConfig,
	"small":       core.SmallTransformerConfig,
}

// modelFlag is -model: the name of a preset.
type modelFlag string

func (m *modelFlag) String() string { return string(*m) }

func (m *modelFlag) Set(name string) error {
	if presets[name] == nil {
		return fmt.Errorf("unknown model %q (want base, large, no-pretrain, small)", name)
	}
	*m = modelFlag(name)
	return nil
}

// ModelConfig returns the -model preset with the size and schedule overrides
// applied; the overrides' defaults leave the preset as it is.
func (f *Flags) ModelConfig() core.ModelConfig {
	cfg := presets[string(f.model)]()
	if f.dim > 0 {
		cfg.Dim, cfg.FFNHidden = f.dim, 2*f.dim
	}
	if f.layers > 0 {
		cfg.Layers = f.layers
	}
	if f.epochs >= 0 {
		cfg.FinetuneEpochs = f.epochs
	}
	if f.samples > 0 {
		cfg.FinetuneSamplesPerEpoch = f.samples
	}
	if f.pepochs >= 0 {
		cfg.PretrainEpochs = f.pepochs
		if f.pepochs == 0 {
			cfg.PretrainMetrics = nil
		}
	}
	if f.ppairs > 0 {
		cfg.PretrainPairsPerEpoch = f.ppairs
	}
	cfg.Workers = f.Workers
	return cfg
}

// BuildCorpus records the corpus flags in the run manifest and builds the
// corpus.
func (c *CorpusFlags) BuildCorpus(rn *obs.Run) (*dataset.Corpus, error) {
	rn.SetConfig("db", c.db.name)
	rn.SetConfig("queries", c.queries)
	rn.SetConfig("cases", c.cases)
	rn.SetConfig("seed", c.seed)
	rn.SetConfig("workers", c.Workers)

	dc := dataset.DefaultConfig(c.db.kind)
	dc.Seed = c.seed
	dc.NumQueries = c.queries
	dc.MaxCasesPerQuery = c.cases
	dc.Workers = c.Workers
	rn.Log.Infof("Building %s corpus (%d queries)...\n", c.db.kind, c.queries)
	return dataset.Build(dc)
}

// Build records the flags in the run manifest and builds the corpus
// (BuildCorpus) with its similarity cache. It then loads the -load checkpoint
// over that corpus, or trains ModelConfig on it, and writes the model to
// -save when that is set.
func (f *Flags) Build(rn *obs.Run) (*dataset.Corpus, *dataset.SimilarityCache, *core.Model, error) {
	rn.SetConfig("model", string(f.model))
	corpus, err := f.BuildCorpus(rn)
	if err != nil {
		return nil, nil, nil, err
	}
	sims := dataset.NewSimilarityCache(corpus)

	var model *core.Model
	if f.load != "" {
		if model, err = core.LoadModelFile(f.load, corpus.DB); err != nil {
			return nil, nil, nil, err
		}
		rn.Log.Infof("Loaded %s from %s (%d weights)\n", model.Name(), f.load, model.NumWeights())
	} else {
		cfg := f.ModelConfig()
		rn.Log.Infof("Training %s...\n", cfg.Name)
		start := time.Now()
		var report *core.TrainReport
		if model, report, err = core.Train(corpus, sims, cfg, nil); err != nil {
			return nil, nil, nil, err
		}
		rn.Log.Infof("  %d weights, best dev NDCG@10 %.3f, %v\n",
			report.NumWeights, report.BestDevNDCG, time.Since(start).Round(time.Second))
		rn.SetQuality("best_dev_ndcg10", report.BestDevNDCG)
	}
	if f.save != "" {
		if err := saveModel(model, f.save); err != nil {
			return nil, nil, nil, err
		}
		rn.Log.Infof("Saved model to %s\n", f.save)
	}
	return corpus, sims, model, nil
}

// saveModel writes the model to path, reporting a failed close: that is
// where a short write to disk shows.
func saveModel(m *core.Model, path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
