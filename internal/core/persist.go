package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"repro/internal/relation"
	"repro/internal/tokenizer"
)

// savedModel is the gob payload of a trained LearnShapley model: its
// configuration, vocabulary and flat weight tensors. Adam state is not
// persisted — a loaded model is for inference (or fresh re-training).
type savedModel struct {
	Version int
	Cfg     ModelConfig
	Words   []string
	Weights [][]float64
}

const persistVersion = 1

// Save serializes the trained model. The paired loader is LoadModel.
func (m *Model) Save(w io.Writer) error {
	payload := savedModel{
		Version: persistVersion,
		Cfg:     m.Cfg,
		Words:   m.tok.Words(),
		Weights: m.params.Snapshot(),
	}
	return gob.NewEncoder(w).Encode(&payload)
}

// LoadModelFile opens the checkpoint at path and runs LoadModel on it.
func LoadModelFile(path string, db *relation.Database) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read only: a close error cannot lose data
	return LoadModel(f, db)
}

// LoadModel reconstructs a model saved with Save. The database must be the
// one the model was trained over (fact IDs are how Rank resolves lineage
// members to token sequences). A checkpoint with a NaN or infinite weight is
// refused: such a model scores NaN, which nothing downstream can rank.
func LoadModel(r io.Reader, db *relation.Database) (*Model, error) {
	var payload savedModel
	if err := gob.NewDecoder(r).Decode(&payload); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if payload.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", payload.Version)
	}
	if err := payload.Cfg.validate(); err != nil {
		return nil, err
	}
	tok, err := tokenizer.FromWords(payload.Words)
	if err != nil {
		return nil, fmt.Errorf("core: restore vocabulary: %w", err)
	}
	if err := payload.Cfg.fitsCheckpoint(tok.VocabSize(), payload.Weights); err != nil {
		return nil, err
	}
	// The RNG only sets the pre-restore initialization, which Restore then
	// overwrites entirely; any seed works.
	m := newModel(payload.Cfg, tok, rand.New(rand.NewSource(payload.Cfg.Seed)))
	m.trainDB = db
	if len(payload.Weights) != len(m.params.All()) {
		return nil, fmt.Errorf("core: weight tensor count %d does not match architecture (%d)",
			len(payload.Weights), len(m.params.All()))
	}
	for i, p := range m.params.All() {
		if len(payload.Weights[i]) != len(p.W) {
			return nil, fmt.Errorf("core: tensor %q has %d weights, file has %d",
				p.Name, len(p.W), len(payload.Weights[i]))
		}
		for j, w := range payload.Weights[i] {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: tensor %q weight %d is %v", p.Name, j, w)
			}
		}
	}
	m.params.Restore(payload.Weights)
	return m, nil
}

// fitsCheckpoint bounds the sizes cfg declares by what a checkpoint carries,
// so that what newModel allocates grows at most linearly with the file's
// size. Each bounded quantity is at most what every valid checkpoint of the
// architecture stores: a tensor per layer at least, and the weights of the
// token and position embeddings, of each layer's Dim×Dim attention
// projections and Dim×FFNHidden feed-forward matrices, and of each
// pre-training head.
func (cfg ModelConfig) fitsCheckpoint(vocab int, weights [][]float64) error {
	if cfg.Layers > len(weights) {
		return fmt.Errorf("core: model config Layers %d exceeds the file's %d tensors", cfg.Layers, len(weights))
	}
	total := 0
	for _, w := range weights {
		total += len(w)
	}
	for _, p := range []struct {
		name    string
		factors []int
	}{
		{"VocabSize×Dim", []int{vocab, cfg.Dim}},
		{"MaxSeqLen×Dim", []int{cfg.MaxSeqLen, cfg.Dim}},
		{"Layers×Dim×Dim", []int{cfg.Layers, cfg.Dim, cfg.Dim}},
		{"Layers×Dim×FFNHidden", []int{cfg.Layers, cfg.Dim, cfg.FFNHidden}},
		{"PretrainMetrics×Dim", []int{len(cfg.PretrainMetrics), cfg.Dim}},
	} {
		if !productAtMost(total, p.factors) {
			return fmt.Errorf("core: model config %s %v exceeds the file's %d weights", p.name, p.factors, total)
		}
	}
	return nil
}

// productAtMost reports whether the product of non-negative factors is at
// most limit, without overflowing.
func productAtMost(limit int, factors []int) bool {
	p := 1
	for _, f := range factors {
		if f == 0 {
			return true
		}
		if p > limit/f {
			return false
		}
		p *= f
	}
	return p <= limit
}
