package tokenizer

import (
	"slices"
	"testing"

	"repro/internal/relation"
)

// FuzzPack packs arbitrary query, tuple and fact strings in the fine-tuning
// layout at a sequence length from 4 to 128. TokenizeSQL must not panic, Pack
// must return exactly [CLS] q[:a] [SEP] t[:b] [SEP] f[:c] [SEP] with (a, b, c)
// from FitLengths, unpadded and at most maxLen positions long, every position
// real, and trimming the encoded IDs must give the IDs of the trimmed tokens:
// the identity core's prefix caches rely on.
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
		lens := FitLengths(maxLen, []int{len(segs[0]), len(segs[1]), len(segs[2])})
		positions := 1 + lens[0] + 1 + lens[1] + 1 + lens[2] + 1
		if positions > maxLen || len(p.Tokens) != positions || len(p.Segments) != positions || len(p.Mask) != positions {
			t.Fatalf("Pack(%d) returned %d tokens, %d segments, %d mask bits, want %d (lengths %v)",
				maxLen, len(p.Tokens), len(p.Segments), len(p.Mask), positions, lens)
		}
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
		if !slices.Equal(p.Tokens, wantTokens) || !slices.Equal(p.Segments, wantSegs) {
			t.Fatalf("tokens %v segments %v, want %v and %v (lengths %v)",
				p.Tokens, p.Segments, wantTokens, wantSegs, lens)
		}
		for i, m := range p.Mask {
			if !m {
				t.Fatalf("position %d of %d is masked", i, positions)
			}
		}
	})
}
