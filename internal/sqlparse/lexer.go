// Package sqlparse implements a lexer, recursive-descent parser and AST for
// the SPJU (Select-Project-Join-Union) SQL fragment used by the paper:
//
//	SELECT [DISTINCT] rel.col, ...
//	FROM rel, ...
//	WHERE rel.col = rel2.col2 AND rel.col <op> literal AND ...
//	[GROUP BY rel.col, ...]            -- accepted as DISTINCT (no aggregates)
//	[UNION [ALL] SELECT ...]
//
// It also extracts the operation-set representation (projections, selections,
// equi-joins) on which the syntax-based query similarity of Section 2.3 is
// defined.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

const (
	TokenEOF TokenKind = iota
	TokenIdent
	TokenKeyword
	TokenNumber
	TokenString
	TokenSymbol
)

// Token is one lexical unit of a SQL string.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

var keywords = map[string]bool{
	"select": true, "distinct": true, "from": true, "where": true,
	"and": true, "or": true, "union": true, "all": true, "like": true,
	"group": true, "by": true, "not": true,
}

// Lex splits a SQL string into tokens. Keywords are lower-cased; identifiers
// keep their original case. String literals keep their quotes stripped.
// Input must be valid UTF-8 outside string literals.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c, size := utf8.DecodeRuneInString(input[i:])
		if c == utf8.RuneError && size == 1 {
			return nil, fmt.Errorf("sqlparse: invalid UTF-8 byte at %d", i)
		}
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n {
				r, rs := utf8.DecodeRuneInString(input[i:])
				if r == utf8.RuneError && rs == 1 {
					return nil, fmt.Errorf("sqlparse: invalid UTF-8 byte at %d", i)
				}
				if !isIdentRune(r) {
					break
				}
				i += rs
			}
			word := input[start:i]
			lower := strings.ToLower(word)
			if keywords[lower] {
				toks = append(toks, Token{Kind: TokenKeyword, Text: lower, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokenIdent, Text: word, Pos: start})
			}
		case c >= '0' && c <= '9':
			// Numeric literals are ASCII digits with an optional dot and an
			// optional exponent, the form Value.String gives floats from 1e6
			// up and below 1e-4 ("1e+06"); other Unicode digit classes are
			// rejected by the default case.
			start := i
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.') {
				i++
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && input[j] >= '0' && input[j] <= '9' {
					i = j
					for i < n && input[i] >= '0' && input[i] <= '9' {
						i++
					}
				}
			}
			toks = append(toks, Token{Kind: TokenNumber, Text: input[start:i], Pos: start})
		case c == '\'' || c == '"':
			quote := byte(c)
			i++
			start := i
			for i < n && input[i] != quote {
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("sqlparse: unterminated string literal at %d", start-1)
			}
			toks = append(toks, Token{Kind: TokenString, Text: input[start:i], Pos: start})
			i++
		case strings.ContainsRune("=<>!,.()*;%", c):
			start := i
			text := string(c)
			if (c == '<' || c == '>' || c == '!') && i+1 < n && (input[i+1] == '=' || (c == '<' && input[i+1] == '>')) {
				text = input[i : i+2]
				i++
			}
			i++
			toks = append(toks, Token{Kind: TokenSymbol, Text: text, Pos: start})
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, Token{Kind: TokenEOF, Pos: n})
	return toks, nil
}

func isIdentRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}
