// Package query implements the aggregation-query layer of §6.6: a small
// SQL dialect (SELECT COUNT(detections) FROM bdd USING MODEL … WHERE
// class='car', with nested sub-queries and USING FILTER pre-screens), a
// recursive-descent parser, an executor over frame streams, and the
// lightweight class-presence filter networks of ODIN-PP / ODIN-FILTER.
package query

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"unicode"
)

// TokenKind enumerates lexer token types.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokString
	TokNumber
	TokLParen
	TokRParen
	TokEquals
	TokStar
	TokComma
)

// Token is one lexical unit.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "COUNT": true, "FROM": true, "USING": true,
	"MODEL": true, "FILTER": true, "WHERE": true, "AND": true,
}

// IsKeyword reports whether word, in any case, is a reserved word of the
// dialect: Lex reads it as a keyword, never as an identifier.
func IsKeyword(word string) bool { return keywords[strings.ToUpper(word)] }

// Keywords returns the dialect's reserved words, upper case and sorted.
func Keywords() []string { return slices.Sorted(maps.Keys(keywords)) }

// Lex tokenises a query string. Keywords are case-insensitive; identifiers
// keep their case.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(':
			toks = append(toks, Token{TokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, Token{TokRParen, ")", i})
			i++
		case c == '=':
			toks = append(toks, Token{TokEquals, "=", i})
			i++
		case c == '*':
			toks = append(toks, Token{TokStar, "*", i})
			i++
		case c == ',':
			toks = append(toks, Token{TokComma, ",", i})
			i++
		case c == '\'':
			j := i + 1
			for j < len(input) && input[j] != '\'' {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("query: unterminated string at %d", i)
			}
			toks = append(toks, Token{TokString, input[i+1 : j], i})
			i = j + 1
		case unicode.IsDigit(c):
			j := i
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			toks = append(toks, Token{TokNumber, input[i:j], i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			// Identifiers may contain '-' after the first rune (stream
			// names like "cam-0"); the dialect has no arithmetic, so the
			// hyphen is unambiguous.
			j := i
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_' || input[j] == '-') {
				j++
			}
			word := input[i:j]
			if IsKeyword(word) {
				toks = append(toks, Token{TokKeyword, strings.ToUpper(word), i})
			} else {
				toks = append(toks, Token{TokIdent, word, i})
			}
			i = j
		default:
			return nil, fmt.Errorf("query: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, Token{TokEOF, "", len(input)})
	return toks, nil
}
