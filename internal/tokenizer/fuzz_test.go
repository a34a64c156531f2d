package tokenizer

import (
	"slices"
	"testing"

	"repro/internal/relation"
)

// FuzzPack packs arbitrary query, tuple and fact strings in the fine-tuning
// layout at a sequence length from 4 to 128. TokenizeSQL must not panic, Pack
// must return maxLen positions whose real tokens are exactly
// [CLS] q[:a] [SEP] t[:b] [SEP] f[:c] [SEP] with (a, b, c) from FitLengths,
// and trimming the encoded IDs must give the IDs of the trimmed tokens: the
// identity core's prefix caches rely on.
func FuzzPack(f *testing.F) {
	f.Add("SELECT DISTINCT movies.title FROM movies, cast WHERE movies.year > 2000", "Heat 1995", "Al Pacino", uint8(60))
	f.Add("", "", "", uint8(0))
	f.Add("SELECT 'unterminated", "x", "y 12 3.5", uint8(124))
	f.Add("select a.b from a where a.c = -0.5e3", "ÄÖ 😀", "\x00", uint8(7))
	f.Fuzz(func(t *testing.T, query, tuple, fact string, n uint8) {
		maxLen := 4 + int(n)%125
		segs := [][]string{
			TokenizeSQL(query),
			TokenizeValues([]relation.Value{relation.Str(tuple)}),
			TokenizeFact(&relation.Fact{Relation: fact, Values: []relation.Value{relation.Str(fact), relation.Int(int64(n))}}),
		}
		// A vocabulary of 8 words: some tokens are known, the rest [UNK].
		tok := Build(segs, numSpecials+8)
		p := tok.Pack(maxLen, 3, segs...)
		if len(p.Tokens) != maxLen || len(p.Segments) != maxLen || len(p.Mask) != maxLen {
			t.Fatalf("Pack(%d) returned %d tokens, %d segments, %d mask bits",
				maxLen, len(p.Tokens), len(p.Segments), len(p.Mask))
		}
		lens := FitLengths(maxLen, []int{len(segs[0]), len(segs[1]), len(segs[2])})
		wantTokens, wantSegs := []int{ClsID}, []int{0}
		for i, seg := range segs {
			trimmed := tok.Encode(seg[:lens[i]])
			if ids := tok.Encode(seg); !slices.Equal(ids[:lens[i]], trimmed) {
				t.Fatalf("segment %d: Encode then trim to %d = %v, trim then Encode = %v", i, lens[i], ids[:lens[i]], trimmed)
			}
			wantTokens = append(append(wantTokens, trimmed...), SepID)
			for range lens[i] + 1 {
				wantSegs = append(wantSegs, i)
			}
		}
		real := len(wantTokens)
		if !slices.Equal(p.Tokens[:real], wantTokens) || !slices.Equal(p.Segments[:real], wantSegs) {
			t.Fatalf("real tokens %v segments %v, want %v and %v (lengths %v)",
				p.Tokens[:real], p.Segments[:real], wantTokens, wantSegs, lens)
		}
		for i := range p.Mask {
			if p.Mask[i] != (i < real) || i >= real && (p.Tokens[i] != PadID || p.Segments[i] != 0) {
				t.Fatalf("position %d of %d real: mask %v token %d segment %d", i, real, p.Mask[i], p.Tokens[i], p.Segments[i])
			}
		}
	})
}
