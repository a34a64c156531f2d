package tokenizer

import (
	"strings"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
)

func TestTokenizeSQLNormalizes(t *testing.T) {
	toks := TokenizeSQL(`SELECT Actors.Name FROM actors WHERE actors.age > 30`)
	joined := strings.Join(toks, " ")
	if !strings.Contains(joined, "select actors . name from actors") {
		t.Errorf("tokens = %v", toks)
	}
	// Numbers become a bucket token plus the literal.
	if !strings.Contains(joined, "<num2> 30") {
		t.Errorf("number tokenization missing: %v", toks)
	}
}

func TestTokenizeSQLStringLiteralSplit(t *testing.T) {
	toks := TokenizeSQL(`SELECT a.x FROM a WHERE a.n = 'University of California San Diego'`)
	joined := strings.Join(toks, " ")
	for _, w := range []string{"university", "of", "california", "san", "diego"} {
		if !strings.Contains(joined, w) {
			t.Errorf("missing word %q in %v", w, toks)
		}
	}
}

func TestTokenizeFact(t *testing.T) {
	db, f := paperdb.New()
	_ = db
	toks := TokenizeFact(f.M[0]) // Superman, 2007, Universal
	joined := strings.Join(toks, " ")
	for _, w := range []string{"movies", "superman", "<num4>", "2007", "universal"} {
		if !strings.Contains(joined, w) {
			t.Errorf("missing %q in %v", w, toks)
		}
	}
}

func TestTokenizeValues(t *testing.T) {
	toks := TokenizeValues([]relation.Value{relation.Str("Lita Baron"), relation.Int(1949), relation.Null()})
	joined := strings.Join(toks, " ")
	for _, w := range []string{"lita", "baron", "1949", "[null]"} {
		if !strings.Contains(joined, w) {
			t.Errorf("missing %q in %v", w, toks)
		}
	}
}

func TestBuildVocabFrequencyOrder(t *testing.T) {
	corpus := [][]string{
		{"common", "common", "common", "rare"},
		{"common", "mid", "mid"},
	}
	tk := Build(corpus, 7) // 5 specials + 2 words
	if tk.VocabSize() != 7 {
		t.Fatalf("vocab size = %d", tk.VocabSize())
	}
	ids := tk.Encode([]string{"common", "mid", "rare"})
	if ids[0] == UnkID || ids[1] == UnkID {
		t.Errorf("frequent words should be in vocab: %v", ids)
	}
	if ids[2] != UnkID {
		t.Errorf("rare word should be UNK with tight budget: %v", ids)
	}
}

func TestEncodeUnknown(t *testing.T) {
	tk := Build([][]string{{"a"}}, 10)
	ids := tk.Encode([]string{"a", "zzz"})
	if ids[1] != UnkID {
		t.Errorf("unknown word id = %d", ids[1])
	}
	if tk.Word(ids[0]) != "a" {
		t.Errorf("Word round trip failed: %q", tk.Word(ids[0]))
	}
	if tk.Word(-1) != "[UNK]" || tk.Word(10000) != "[UNK]" {
		t.Error("out-of-range Word should be [UNK]")
	}
}

func TestPackStructure(t *testing.T) {
	tk := Build([][]string{{"q", "w", "e", "r"}}, 20)
	p := tk.Pack(12, 2, []string{"q", "w"}, []string{"e", "r"})
	// [CLS] q w [SEP] e r [SEP], unpadded: 1 + (2+1) + (2+1) positions.
	if len(p.Tokens) != 7 || len(p.Segments) != 7 || len(p.Mask) != 7 {
		t.Fatalf("lengths = %d %d %d", len(p.Tokens), len(p.Segments), len(p.Mask))
	}
	if p.Tokens[0] != ClsID {
		t.Error("sequence must start with [CLS]")
	}
	if p.Tokens[3] != SepID || p.Tokens[6] != SepID {
		t.Errorf("separators misplaced: %v", p.Tokens)
	}
	if p.Segments[1] != 0 || p.Segments[4] != 1 {
		t.Errorf("segments = %v", p.Segments)
	}
	for i, m := range p.Mask {
		if !m || p.Tokens[i] == PadID {
			t.Errorf("position %d is not real: mask %v, tokens %v", i, p.Mask, p.Tokens)
		}
	}
}

func TestPackTruncatesLongestFirst(t *testing.T) {
	tk := Build([][]string{{"a", "b", "c", "d", "e", "f"}}, 20)
	long := []string{"a", "b", "c", "d", "e", "f"}
	short := []string{"a"}
	// maxLen 8: CLS + 2 SEPs + 5 content slots; long must shrink to 4.
	p := tk.Pack(8, 2, long, short)
	if len(p.Tokens) != 8 {
		t.Fatalf("len = %d", len(p.Tokens))
	}
	seps := 0
	for _, id := range p.Tokens {
		if id == SepID {
			seps++
		}
	}
	if seps != 2 {
		t.Errorf("separators = %d, want 2 (both segments preserved)", seps)
	}
	// The short segment must survive intact.
	found := false
	for i, id := range p.Tokens {
		if p.Segments[i] == 1 && id != SepID && id != PadID {
			found = true
		}
	}
	if !found {
		t.Error("short segment was truncated away")
	}
}

func TestPackThreeSegments(t *testing.T) {
	tk := Build([][]string{{"a", "b", "c"}}, 20)
	p := tk.Pack(10, 3, []string{"a"}, []string{"b"}, []string{"c"})
	// Segment IDs 0, 1, 2.
	segSeen := map[int]bool{}
	for i, id := range p.Tokens {
		if id != PadID && id != ClsID {
			segSeen[p.Segments[i]] = true
		}
	}
	for s := 0; s < 3; s++ {
		if !segSeen[s] {
			t.Errorf("segment %d unused: %v / %v", s, p.Tokens, p.Segments)
		}
	}
}

func TestPackSegmentCap(t *testing.T) {
	tk := Build([][]string{{"a", "b", "c"}}, 20)
	p := tk.Pack(10, 2, []string{"a"}, []string{"b"}, []string{"c"})
	for _, s := range p.Segments {
		if s > 1 {
			t.Errorf("segment id %d exceeds cap", s)
		}
	}
}

func TestFitLengthsMatchesPack(t *testing.T) {
	tk := Build([][]string{{"a", "b", "c", "d", "e"}}, 50)
	mk := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "a"
		}
		return out
	}
	cases := []struct {
		maxLen int
		segs   []int
	}{
		{20, []int{3, 4, 5}},   // fits untrimmed
		{12, []int{10, 2, 3}},  // trims the first (longest) segment
		{10, []int{8, 8, 8}},   // trims all segments round-robin
		{16, []int{0, 5, 20}},  // empty segment stays empty
		{8, []int{30, 1}},      // two segments, heavy trim
		{6, []int{4, 4, 4, 4}}, // budget barely above zero
	}
	for _, c := range cases {
		segs := make([][]string, len(c.segs))
		lens := make([]int, len(c.segs))
		for i, n := range c.segs {
			segs[i] = mk(n)
			lens[i] = n
		}
		FitLengths(c.maxLen, lens)
		total := 0
		for _, l := range lens {
			total += l
		}
		if want := c.maxLen - 1 - len(lens); total > want {
			t.Fatalf("FitLengths(%d, %v): total %d exceeds budget %d", c.maxLen, c.segs, total, want)
		}
		// Pack's real-token count must equal CLS + trimmed tokens + SEPs.
		p := tk.Pack(c.maxLen, 3, segs...)
		real := 0
		for _, m := range p.Mask {
			if m {
				real++
			}
		}
		if real != 1+total+len(lens) {
			t.Errorf("Pack(%d, %v): %d real tokens, FitLengths gives %v", c.maxLen, c.segs, real, lens)
		}
	}
}

// TestFitLengthsExactBudgetEdges pins the truncation rule at the exact-budget
// boundary, where the prefix-reuse fast path of internal/core flips between
// hit and fallback: a (q, t, f) triple that exactly fills the budget must be
// left untouched, one token of overflow must trim exactly the longest segment
// (the fact when the fact is longest — fast path survives with a shorter
// fact; the query or tuple when one of them is longest — which forces the
// per-fact fallback; the ranker routes eligibility through this function).
func TestFitLengthsExactBudgetEdges(t *testing.T) {
	cases := []struct {
		name   string
		maxLen int
		lens   []int
		want   []int
	}{
		// budget = maxLen - 1 (CLS) - 3 (SEPs) = 16
		{"exact fill untouched", 20, []int{6, 4, 6}, []int{6, 4, 6}},
		{"fact overflow by one trims fact", 20, []int{6, 3, 8}, []int{6, 3, 7}},
		{"query overflow by one trims query", 20, []int{9, 4, 4}, []int{8, 4, 4}},
		{"tuple overflow by one trims tuple", 20, []int{4, 9, 4}, []int{4, 8, 4}},
		{"tie on overflow trims first longest", 20, []int{7, 3, 7}, []int{6, 3, 7}},
		{"fact alone exactly fills", 20, []int{0, 0, 16}, []int{0, 0, 16}},
		{"fact alone overflows by one", 20, []int{0, 0, 17}, []int{0, 0, 16}},
		// budget = 12 - 1 - 2 = 9 for two segments
		{"two segments exact fill", 12, []int{5, 4}, []int{5, 4}},
		{"two segments overflow by one", 12, []int{6, 4}, []int{5, 4}},
	}
	for _, c := range cases {
		lens := append([]int(nil), c.lens...)
		FitLengths(c.maxLen, lens)
		for i, w := range c.want {
			if lens[i] != w {
				t.Errorf("%s: FitLengths(%d, %v) = %v, want %v", c.name, c.maxLen, c.lens, lens, c.want)
				break
			}
		}
	}
}
