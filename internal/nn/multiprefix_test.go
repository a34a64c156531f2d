package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// testPrefix is one embedded prefix of the multi-prefix fixture, with the
// token and segment IDs it was built from (the reference pass needs them).
type testPrefix struct {
	pc           *PrefixCache
	tokens, segs []int
}

// multiPrefixFixture builds a few embedded prefixes of different lengths on
// the shared test encoder. The caches stay valid across forward passes
// (EmbedPrefix clones its rows out of the workspace).
func multiPrefixFixture(enc *Encoder, rng *rand.Rand, n int) []testPrefix {
	out := make([]testPrefix, n)
	for i := range out {
		pLen := 4 + rng.Intn(6)
		prefix := make([]int, pLen)
		pSegs := make([]int, pLen)
		for j := range prefix {
			prefix[j] = rng.Intn(enc.Cfg.VocabSize)
			if j > pLen/2 {
				pSegs[j] = 1
			}
		}
		out[i] = testPrefix{pc: enc.EmbedPrefix(prefix, pSegs), tokens: prefix, segs: pSegs}
	}
	return out
}

// TestBatchedForwardMultiPrefixMatchesPerSequence property-tests the packed
// pass against one full-row reference pass (and one Forward call) per full
// prefix+suffix sequence: random batches mix sequences from several distinct
// prefix caches (including consecutive repeats of the same cache, as the rank
// batcher produces, and empty suffixes), at every parityLayers depth.
// Bit-identical readout rows and head readouts are required.
func TestBatchedForwardMultiPrefixMatchesPerSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, layers := range parityLayers {
		enc, head := batchedTestEncoder(50, layers)
		prefixes := multiPrefixFixture(enc, rng, 3)
		for _, batch := range []int{1, 2, 5, 8} {
			for trial := 0; trial < 8; trial++ {
				picked := make([]testPrefix, batch)
				pcs := make([]*PrefixCache, batch)
				sufs := make([][]int, batch)
				sufSegs := make([][]int, batch)
				masks := make([][]bool, batch)
				for b := range sufs {
					if b > 0 && rng.Intn(2) == 0 {
						picked[b] = picked[b-1] // a lineage contributes a run of facts
					} else {
						picked[b] = prefixes[rng.Intn(len(prefixes))]
					}
					pcs[b] = picked[b].pc
					p := pcs[b].Len()
					n := rng.Intn(enc.Cfg.MaxSeqLen - p + 1) // 0 = prefix-only sequence
					sufs[b] = make([]int, n)
					sufSegs[b] = make([]int, n)
					for i := 0; i < n; i++ {
						sufs[b][i] = rng.Intn(enc.Cfg.VocabSize)
						sufSegs[b][i] = 2
					}
					masks[b] = make([]bool, p+n)
					for i := range masks[b] {
						masks[b][i] = true
					}
				}
				want := make([]*Mat, batch)
				wantPred := make([]float64, batch)
				label := fmt.Sprintf("BatchedForwardMultiPrefix layers=%d batch=%d", layers, batch)
				for b := range sufs {
					tokens := append(append([]int(nil), picked[b].tokens...), sufs[b]...)
					segs := append(append([]int(nil), picked[b].segs...), sufSegs[b]...)
					want[b], wantPred[b] = referenceCLS(t, label, enc, head, tokens, segs, masks[b])
				}
				assertReadoutsBitEqual(t, label, head, enc.BatchedForwardMultiPrefix(pcs, sufs, sufSegs, masks), want, wantPred)
			}
		}
	}
}

// TestMultiPrefixZeroAllocs pins a warmed mixed-cache packed pass (multi-
// prefix forward over sequences from distinct caches plus per-sequence head
// readouts) to exactly 0 allocs/op. scripts/ci.sh fails if this test is
// skipped.
func TestMultiPrefixZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(56))
	enc, head := batchedTestEncoder(50, 2)
	prefixes := multiPrefixFixture(enc, rng, 3)
	const batch = 6
	pcs := make([]*PrefixCache, batch)
	sufs := make([][]int, batch)
	sufSegs := make([][]int, batch)
	masks := make([][]bool, batch)
	for b := 0; b < batch; b++ {
		pcs[b] = prefixes[b%len(prefixes)].pc
		p := pcs[b].Len()
		n := 2 + b // mixed suffix lengths: the pool is keyed by size class, not last use
		sufs[b] = make([]int, n)
		sufSegs[b] = make([]int, n)
		for i := 0; i < n; i++ {
			sufs[b][i] = rng.Intn(enc.Cfg.VocabSize)
			sufSegs[b][i] = 2
		}
		masks[b] = make([]bool, p+n)
		for i := range masks[b] {
			masks[b][i] = true
		}
	}
	step := func() {
		readout := enc.BatchedForwardMultiPrefix(pcs, sufs, sufSegs, masks)
		for b := 0; b < readout.Rows; b++ {
			head.ForwardAt(readout, b)
		}
	}
	step()
	step() // warm: every scratch shape, view header and offset slice pooled
	allocs := testing.AllocsPerRun(20, step)
	if allocs != 0 {
		t.Errorf("warmed multi-prefix pass allocates %v objects/op, want 0", allocs)
	}
}
