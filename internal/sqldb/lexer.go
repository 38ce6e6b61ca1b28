package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexical token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp    // operators and punctuation
	tokParam // ? placeholder
)

type token struct {
	kind tokKind
	// slot numbers the number and string literals of a statement in order:
	// the statement store keys a text by its tokens with every literal
	// replaced by its type, and binds the literal in slot i to the i-th
	// value the text's key scan collected (cache.go).
	slot int32
	text string
	pos  int
}

// String renders the token for error messages.
func (t token) String() string {
	if t.kind == tokEOF {
		return "<eof>"
	}
	return t.text
}

// lexer tokenizes a SQL string.
type lexer struct {
	src   string
	pos   int
	toks  []token
	slots int32 // literals lexed so far
}

// lex tokenizes the whole input up front; SQL statements here are small
// relative to the data they touch, so a two-pass scanner keeps the parser
// simple.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, fmt.Errorf("sqldb: unterminated block comment at %d", l.pos)
			}
			l.pos += end + 4
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	// Identifiers may contain multi-byte letters, so decode a full rune
	// here rather than treating each byte as a Latin-1 character (found by
	// FuzzParse: the byte 0xC9 would lex as the letter 'É' and survive into
	// an identifier that is not valid UTF-8, which ToLower then mangles).
	// Invalid UTF-8 is rejected outright.
	r, rsize := rune(c), 1
	if c >= utf8.RuneSelf {
		r, rsize = utf8.DecodeRuneInString(l.src[l.pos:])
		if r == utf8.RuneError && rsize == 1 {
			return token{}, fmt.Errorf("sqldb: invalid UTF-8 byte 0x%02x at %d", c, l.pos)
		}
	}
	switch {
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == quote {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
					sb.WriteByte(quote) // doubled quote escape
					l.pos += 2
					continue
				}
				l.pos++
				return l.literal(tokString, sb.String(), start), nil
			}
			if ch == '\\' && l.pos+1 < len(l.src) {
				l.pos++
				switch l.src[l.pos] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				default:
					sb.WriteByte(l.src[l.pos])
				}
				l.pos++
				continue
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return token{}, fmt.Errorf("sqldb: unterminated string literal at %d", start)
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		seenDot, seenExp := false, false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch >= '0' && ch <= '9' {
				l.pos++
			} else if ch == '.' && !seenDot && !seenExp {
				seenDot = true
				l.pos++
			} else if (ch == 'e' || ch == 'E') && !seenExp && l.pos+1 < len(l.src) &&
				(isDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') {
				seenExp = true
				l.pos += 2
			} else {
				break
			}
		}
		return l.literal(tokNumber, l.src[start:l.pos], start), nil
	case isIdentStart(r):
		l.pos += rsize
		for l.pos < len(l.src) {
			pr, psize := utf8.DecodeRuneInString(l.src[l.pos:])
			if (pr == utf8.RuneError && psize == 1) || !isIdentPart(pr) {
				break // an invalid byte errors on the next scan
			}
			l.pos += psize
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case c == '?':
		l.pos++
		return token{kind: tokParam, text: "?", pos: start}, nil
	default:
		// multi-char operators first
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "!=", "<>", "<=", ">=", "||":
			l.pos += 2
			return token{kind: tokOp, text: two, pos: start}, nil
		}
		switch c {
		case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', ';', '.':
			l.pos++
			return token{kind: tokOp, text: string(c), pos: start}, nil
		}
		return token{}, fmt.Errorf("sqldb: unexpected character %q at %d", c, start)
	}
}

// literal numbers a number or string token with the next slot.
func (l *lexer) literal(kind tokKind, text string, pos int) token {
	l.slots++
	return token{kind: kind, slot: l.slots - 1, text: text, pos: pos}
}

// is reports whether t is the keyword kw, in any case.
func (t token) is(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// litValue is the value of a number or string token: a number with a
// point or an exponent, or one too large for an Int64, is a Float64.
func litValue(t token) (Datum, error) {
	if t.kind == tokString {
		return Str(t.text), nil
	}
	if !strings.ContainsAny(t.text, ".eE") {
		if n, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return Int(n), nil
		}
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return Datum{}, fmt.Errorf("bad number %q", t.text)
	}
	return Float(f), nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
