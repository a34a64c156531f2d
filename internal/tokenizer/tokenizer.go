// Package tokenizer converts SQL queries, output tuples and database facts
// into token sequences for the encoder, and manages the vocabulary. It is a
// word-level tokenizer (the paper uses BERT's WordPiece; at our vocabulary
// sizes word-level is equivalent in coverage and far simpler), with the
// standard special tokens and BERT-style sequence packing:
//
//	pre-training:  [CLS] q [SEP] q' [SEP]
//	fine-tuning:   [CLS] q [SEP] t [SEP] f [SEP]
package tokenizer

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// Special token IDs. The vocabulary always reserves these. No objective
// reads [MASK] any more, but dropping it would shift every word's ID and
// break loading every saved checkpoint.
const (
	PadID = iota
	UnkID
	ClsID
	SepID
	MaskID
	numSpecials
)

var specialNames = []string{"[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"}

// Tokenizer maps words to IDs over a fixed vocabulary.
type Tokenizer struct {
	vocab map[string]int
	words []string
}

// VocabSize returns the number of distinct token IDs (including specials).
func (t *Tokenizer) VocabSize() int { return len(t.words) }

// Words returns the vocabulary in token-ID order (specials first); together
// with FromWords it round-trips a tokenizer through serialization.
func (t *Tokenizer) Words() []string {
	out := make([]string, len(t.words))
	copy(out, t.words)
	return out
}

// FromWords reconstructs a tokenizer from a Words() dump. The slice must
// start with the five special tokens in their canonical order.
func FromWords(words []string) (*Tokenizer, error) {
	if len(words) < numSpecials {
		return nil, fmt.Errorf("tokenizer: vocabulary too small (%d words)", len(words))
	}
	for i, want := range specialNames {
		if words[i] != want {
			return nil, fmt.Errorf("tokenizer: word %d is %q, want special %q", i, words[i], want)
		}
	}
	t := &Tokenizer{vocab: make(map[string]int, len(words))}
	t.words = append(t.words, words...)
	for i, w := range words {
		if _, dup := t.vocab[w]; dup {
			return nil, fmt.Errorf("tokenizer: duplicate word %q", w)
		}
		t.vocab[w] = i
	}
	return t, nil
}

// TokenizeSQL splits a SQL string into normalized word tokens using the SQL
// lexer: keywords and identifiers are lower-cased, string literals are split
// into words, numbers become a magnitude-bucketed token plus their leading
// digit (so 2007 and 2009 share structure while 7 and 7000 do not).
func TokenizeSQL(sql string) []string {
	toks, err := sqlparse.Lex(sql)
	if err != nil {
		// Fall back to whitespace splitting for non-SQL text.
		return splitWords(sql)
	}
	var out []string
	for _, tok := range toks {
		switch tok.Kind {
		case sqlparse.TokenEOF:
		case sqlparse.TokenNumber:
			out = append(out, numberTokens(tok.Text)...)
		case sqlparse.TokenString:
			out = append(out, splitWords(tok.Text)...)
		default:
			out = append(out, strings.ToLower(tok.Text))
		}
	}
	return out
}

// TokenizeFact renders a database fact as tokens: its relation name followed
// by its column values.
func TokenizeFact(f *relation.Fact) []string {
	out := []string{strings.ToLower(f.Relation)}
	for _, v := range f.Values {
		out = append(out, valueTokens(v)...)
	}
	return out
}

// TokenizeValues renders an output tuple's values as tokens.
func TokenizeValues(values []relation.Value) []string {
	var out []string
	for _, v := range values {
		out = append(out, valueTokens(v)...)
	}
	return out
}

func valueTokens(v relation.Value) []string {
	switch v.Kind() {
	case relation.KindString:
		return splitWords(v.AsString())
	case relation.KindInt:
		return numberTokens(strconv.FormatInt(v.AsInt(), 10))
	case relation.KindFloat:
		return numberTokens(v.String())
	case relation.KindBool:
		return []string{v.String()}
	default:
		return []string{"[null]"}
	}
}

// numberTokens buckets a numeric literal: "<numK>" for its digit count plus
// the literal itself (which the vocabulary keeps only if frequent).
func numberTokens(text string) []string {
	digits := 0
	for _, c := range text {
		if c >= '0' && c <= '9' {
			digits++
		}
	}
	return []string{"<num" + strconv.Itoa(digits) + ">", text}
}

func splitWords(s string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, strings.ToLower(b.String()))
			b.Reset()
		}
	}
	for _, c := range s {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			b.WriteRune(c)
		} else {
			flush()
		}
	}
	flush()
	if len(out) == 0 {
		return []string{"[empty]"}
	}
	return out
}

// Build constructs a vocabulary from a token corpus, keeping the maxVocab
// most frequent words (ties broken lexicographically for determinism).
func Build(corpus [][]string, maxVocab int) *Tokenizer {
	counts := make(map[string]int)
	for _, seq := range corpus {
		for _, w := range seq {
			counts[w]++
		}
	}
	type wc struct {
		w string
		c int
	}
	all := make([]wc, 0, len(counts))
	for w, c := range counts {
		all = append(all, wc{w, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	t := &Tokenizer{vocab: make(map[string]int)}
	t.words = append(t.words, specialNames...)
	for i, name := range specialNames {
		t.vocab[name] = i
	}
	budget := maxVocab - numSpecials
	for _, e := range all {
		if budget <= 0 {
			break
		}
		if _, dup := t.vocab[e.w]; dup {
			continue
		}
		t.vocab[e.w] = len(t.words)
		t.words = append(t.words, e.w)
		budget--
	}
	return t
}

// Encode maps words to IDs; unknown words map to [UNK].
func (t *Tokenizer) Encode(words []string) []int {
	out := make([]int, len(words))
	for i, w := range words {
		if id, ok := t.vocab[w]; ok {
			out[i] = id
		} else {
			out[i] = UnkID
		}
	}
	return out
}

// Word returns the surface form of a token ID.
func (t *Tokenizer) Word(id int) string {
	if id < 0 || id >= len(t.words) {
		return "[UNK]"
	}
	return t.words[id]
}

// Packed is an encoder-ready sequence.
type Packed struct {
	Tokens   []int
	Segments []int
	Mask     []bool
}

// FitLengths trims per-segment token counts in place so a packed sequence of
// numSegments segments fits maxLen: the budget is maxLen minus [CLS] and one
// [SEP] per segment, and tokens are removed one at a time from the currently
// longest segment. This is exactly Pack's truncation rule, exported so callers
// that assemble sequences themselves (the prefix-reuse ranking path in
// internal/core) stay bit-compatible with Pack. Returns lens.
func FitLengths(maxLen int, lens []int) []int {
	budget := maxLen - 1 - len(lens)
	total := 0
	for _, l := range lens {
		total += l
	}
	for total > budget {
		// Trim one token from the currently longest segment.
		longest := 0
		for i, l := range lens {
			if l > lens[longest] {
				longest = i
			}
		}
		lens[longest]--
		total--
	}
	return lens
}

// Pack assembles [CLS] seg0 [SEP] seg1 [SEP] ... [SEP], truncating the
// longest segments first to fit maxLen. It does not pad: the sequence has
// 1 + Σ(kept_i + 1) ≤ maxLen positions, every one real (Mask all true).
// Segment i gets segment ID min(i, maxSegments-1).
func (t *Tokenizer) Pack(maxLen, maxSegments int, segments ...[]string) Packed {
	lens := make([]int, len(segments))
	for i, s := range segments {
		lens[i] = len(s)
	}
	FitLengths(maxLen, lens)
	p := Packed{
		Tokens:   make([]int, 0, maxLen),
		Segments: make([]int, 0, maxLen),
		Mask:     make([]bool, 0, maxLen),
	}
	push := func(id, seg int) {
		p.Tokens = append(p.Tokens, id)
		p.Segments = append(p.Segments, seg)
		p.Mask = append(p.Mask, true)
	}
	push(ClsID, 0)
	for i, s := range segments {
		seg := i
		if seg >= maxSegments {
			seg = maxSegments - 1
		}
		for _, id := range t.Encode(s[:lens[i]]) {
			push(id, seg)
		}
		push(SepID, seg)
	}
	return p
}
