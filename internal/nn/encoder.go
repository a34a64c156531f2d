package nn

import (
	"math/rand"

	"repro/internal/obs"
)

// Config sizes a transformer encoder. The paper's BERT-base/BERT-large map to
// two instances of this config at CPU-trainable scale (see DESIGN.md).
type Config struct {
	VocabSize int
	MaxSeqLen int
	Dim       int
	Heads     int
	Layers    int
	FFNHidden int
	Segments  int // number of segment (sentence) embeddings, ≥ 2
}

// Validate fills defaults and panics on inconsistent settings.
func (c *Config) Validate() {
	if c.Segments == 0 {
		c.Segments = 2
	}
	if c.FFNHidden == 0 {
		c.FFNHidden = 4 * c.Dim
	}
	if c.Dim%c.Heads != 0 {
		panic("nn: Dim must be divisible by Heads")
	}
}

// Encoder is a BERT-style transformer encoder: token + position + segment
// embeddings followed by post-norm attention/FFN blocks. One Encoder instance
// processes one sequence at a time (Forward then Backward); a single instance
// is not safe for concurrent use because it caches activations between the
// two passes. For data-parallel execution, build one encoder per worker over
// a Params.CloneForWorker registry: the replicas share weight storage
// (read-only during the forward/backward passes) while each owns its
// activation caches, gradient accumulators and Workspace arena.
type Encoder struct {
	Cfg    Config
	tokEmb *Param
	posEmb *Param
	segEmb *Param
	embLN  *LayerNorm
	layers []*encoderLayer
	ws     *Workspace

	tokens, segments []int

	// Per-packed-pass scratch: row offsets and lengths of the packed
	// sequences, and of their readout rows (one each, at row b) in the last
	// layer (see BatchedForwardMultiPrefix). Reused across calls.
	batchOffs, batchLens []int
	readOffs, readLens   []int

	// Metric handles, resolved once at construction against the registry
	// installed at the time (nil handles — the no-op recorder — otherwise).
	// Same-name handles share storage, so replicas aggregate into one metric
	// and each increment stays a single atomic add: 0 bytes, O(1) per step.
	mForward, mBackward, mTokens *obs.Counter
	mMBatchPasses, mMBatchSeqs   *obs.Counter
	mMBatchPrefixes              *obs.Counter
	hMBatchSize                  *obs.Histogram
}

type encoderLayer struct {
	attn *MultiHeadAttention
	ln1  *LayerNorm
	ffn  *FFN
	ln2  *LayerNorm
}

// NewEncoder registers all parameters of the encoder in ps. Every encoder —
// primary or CloneForWorker replica — owns a private Workspace, so replicas
// never share scratch storage.
func NewEncoder(cfg Config, ps *Params, rng *rand.Rand) *Encoder {
	cfg.Validate()
	e := &Encoder{
		Cfg:    cfg,
		tokEmb: ps.New("emb.tok", cfg.VocabSize*cfg.Dim),
		posEmb: ps.New("emb.pos", cfg.MaxSeqLen*cfg.Dim),
		segEmb: ps.New("emb.seg", cfg.Segments*cfg.Dim),
		embLN:  NewLayerNorm(ps, "emb.ln", cfg.Dim),
		ws:     NewWorkspace(),
	}
	reg := obs.Metrics()
	e.mForward = reg.Counter("nn.encoder.forward_passes")
	e.mBackward = reg.Counter("nn.encoder.backward_passes")
	e.mTokens = reg.Counter("nn.encoder.tokens")
	e.mMBatchPasses = reg.Counter("nn.mbatch.passes")
	e.mMBatchSeqs = reg.Counter("nn.mbatch.sequences")
	e.mMBatchPrefixes = reg.Counter("nn.mbatch.prefixes")
	e.hMBatchSize = reg.Histogram("nn.mbatch.size", obs.ExpBuckets(1, 2, 8))
	e.tokEmb.initNormal(rng, 0.02)
	e.posEmb.initNormal(rng, 0.02)
	e.segEmb.initNormal(rng, 0.02)
	for l := 0; l < cfg.Layers; l++ {
		name := "layer" + string(rune('0'+l))
		e.layers = append(e.layers, &encoderLayer{
			attn: NewMultiHeadAttention(ps, name+".attn", cfg.Dim, cfg.Heads, rng),
			ln1:  NewLayerNorm(ps, name+".ln1", cfg.Dim),
			ffn:  NewFFN(ps, name+".ffn", cfg.Dim, cfg.FFNHidden, rng),
			ln2:  NewLayerNorm(ps, name+".ln2", cfg.Dim),
		})
	}
	return e
}

// Workspace exposes the encoder's scratch arena (for tests and benchmarks).
func (e *Encoder) Workspace() *Workspace { return e.ws }

// Forward encodes one sequence. tokens and segments have equal length ≤
// MaxSeqLen; mask[i] = true marks real positions (false = padding). It
// returns the final hidden state of the [CLS] row [1×Dim], the only row any
// head reads (see encode). The returned matrix is workspace scratch: it
// stays valid until the encoder's next forward pass.
func (e *Encoder) Forward(tokens, segments []int, mask []bool) *Mat {
	if len(tokens) > e.Cfg.MaxSeqLen {
		panic("nn: sequence exceeds MaxSeqLen")
	}
	e.mForward.Add(1)
	e.mTokens.Add(int64(len(tokens)))
	e.ws.Reset()
	e.tokens, e.segments = tokens, segments
	x := e.embedRows(tokens, segments)
	x = e.embLN.Forward(e.ws, x)
	return e.encode(x, mask)
}

// embedRows sums token, position and segment embeddings for a sequence
// starting at position 0.
func (e *Encoder) embedRows(tokens, segments []int) *Mat {
	x := e.ws.Get(len(tokens), e.Cfg.Dim)
	e.embedRowsAt(x, 0, tokens, segments, 0)
	return x
}

// embedRowsAt writes the embedding rows of one sequence into x starting at
// row rowOff — the packing primitive of the batched forward passes. Position
// embeddings follow posOffset (the sequence's own positions), not the packed
// row index, so each sequence in a packed matrix embeds exactly as it would
// alone.
func (e *Encoder) embedRowsAt(x *Mat, rowOff int, tokens, segments []int, posOffset int) {
	d := e.Cfg.Dim
	for i := range tokens {
		row := x.Row(rowOff + i)
		tok := e.tokEmb.W[tokens[i]*d : (tokens[i]+1)*d]
		pos := e.posEmb.W[(posOffset+i)*d : (posOffset+i+1)*d]
		seg := e.segEmb.W[segments[i]*d : (segments[i]+1)*d]
		for j := 0; j < d; j++ {
			row[j] = tok[j] + pos[j] + seg[j]
		}
	}
}

// encode runs the transformer blocks over post-embedding states x and returns
// the [CLS] row's final state [1×Dim]. Every layer but the last runs on all
// rows, because the next layer's keys and values need them. The last layer
// projects K and V from every row but runs Q, the scores and softmax,
// probs·V, Wo, both LayerNorms and the FFN on the [CLS] row alone: its other
// rows feed no later layer and no head. Every kernel computes an output row
// from its own input row (the GEMMs accumulate each row independently, in
// k-order), so the [CLS] row is bit-identical to row 0 of a pass that
// computes every row.
func (e *Encoder) encode(x *Mat, mask []bool) *Mat {
	if len(e.layers) == 0 {
		return e.ws.View(x, 0, 1)
	}
	for i, l := range e.layers {
		xq := x
		if i == len(e.layers)-1 {
			xq = e.ws.View(x, 0, 1)
		}
		h := l.attn.forwardQueries(e.ws, xq, x, mask)
		h.AddInPlace(xq)
		x = l.ln1.Forward(e.ws, h)
		f := l.ffn.Forward(e.ws, x)
		f.AddInPlace(x)
		x = l.ln2.Forward(e.ws, f)
	}
	return x
}

// Backward accumulates gradients for the whole encoder from dL/d[CLS], the
// [1×Dim] gradient on Forward's result. It computes, bit for bit, what a
// backward pass over every row of every layer computes from a gradient that
// is zero off the [CLS] row: that pass only adds ±0 terms for the rows this
// one skips, and adding ±0 changes no accumulator. Every accumulator starts
// at +0 and a sum is -0 only when both addends are, so an accumulator is
// never -0, and +0 or any non-zero value plus ±0 is itself under
// round-to-nearest.
func (e *Encoder) Backward(grad *Mat) {
	e.mBackward.Add(1)
	for li := len(e.layers) - 1; li >= 0; li-- {
		l := e.layers[li]
		g := l.ln2.Backward(grad)
		gf := l.ffn.Backward(e.ws, g)
		gf.AddInPlace(g) // residual
		g = l.ln1.Backward(gf)
		ga := l.attn.Backward(e.ws, g)
		e.ws.View(ga, 0, g.Rows).AddInPlace(g) // residual of the query rows
		grad = ga
	}
	grad = e.embLN.Backward(grad)
	d := e.Cfg.Dim
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		tok := e.tokEmb.G[e.tokens[i]*d : (e.tokens[i]+1)*d]
		pos := e.posEmb.G[i*d : (i+1)*d]
		seg := e.segEmb.G[e.segments[i]*d : (e.segments[i]+1)*d]
		for j := 0; j < d; j++ {
			tok[j] += row[j]
			pos[j] += row[j]
			seg[j] += row[j]
		}
	}
}

// RegressionHead is a linear head on the [CLS] hidden state predicting one
// scalar, trained with squared loss — the shape of every objective in the
// paper (three similarity heads during pre-training, one Shapley head during
// fine-tuning). Each head owns a private Workspace (reset on Forward), so a
// warmed head allocates nothing per step.
type RegressionHead struct {
	lin *Linear
	ws  *Workspace
	cls Mat // reusable 1×Dim view of the [CLS] row
	g   Mat // reusable 1×1 loss-gradient seed
}

// NewRegressionHead registers a Dim→1 head.
func NewRegressionHead(ps *Params, name string, dim int, rng *rand.Rand) *RegressionHead {
	return &RegressionHead{
		lin: NewLinear(ps, name, dim, 1, rng),
		ws:  NewWorkspace(),
		g:   Mat{Rows: 1, Cols: 1, Data: make([]float64, 1)},
	}
}

// Forward returns the scalar prediction from the [CLS] row of hidden.
func (h *RegressionHead) Forward(hidden *Mat) float64 {
	return h.ForwardAt(hidden, 0)
}

// ForwardAt returns the scalar prediction from row `row` of hidden — for
// packed batched passes, the [CLS] row of one sequence sits at its offset
// rather than at row 0. Bit-identical to Forward over that sequence's own
// hidden matrix: the head reads exactly the same Dim floats either way.
func (h *RegressionHead) ForwardAt(hidden *Mat, row int) float64 {
	h.ws.Reset()
	h.cls = Mat{Rows: 1, Cols: hidden.Cols, Data: hidden.Row(row)}
	return h.lin.Forward(h.ws, &h.cls).Data[0]
}

// Backward converts a scalar loss gradient into the gradient on the [CLS]
// row [1×Dim], the input of Encoder.Backward. The result is scratch of this
// head's workspace: valid until the head's next Forward.
func (h *RegressionHead) Backward(dPred float64) *Mat {
	h.g.Data[0] = dPred
	return h.lin.Backward(h.ws, &h.g)
}
