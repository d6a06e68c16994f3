package prop

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stg"
)

// maxDepth bounds formula nesting so hostile inputs (deeply nested
// parentheses or negation chains from the fuzzer or the service API)
// cannot exhaust the parser's stack.
const maxDepth = 200

// ParseFile reads a property file: one `prop <name> : <formula>` per line,
// '#' starts a comment, blank lines are skipped. Property names must be
// unique.
func ParseFile(r io.Reader) ([]Property, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Parse(string(src))
}

// Parse parses property-file source text.
func Parse(src string) ([]Property, error) {
	var props []Property
	seen := map[string]bool{}
	for i, line := range strings.Split(src, "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		p, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("prop: line %d: %w", i+1, err)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("prop: line %d: duplicate property %q", i+1, p.Name)
		}
		seen[p.Name] = true
		props = append(props, p)
	}
	return props, nil
}

func parseLine(line string) (Property, error) {
	lx := &lexer{src: line}
	if err := lx.next(); err != nil {
		return Property{}, err
	}
	if lx.tok != tokIdent || lx.lit != "prop" {
		return Property{}, fmt.Errorf("expected 'prop', got %s", lx.describe())
	}
	if err := lx.next(); err != nil {
		return Property{}, err
	}
	if lx.tok != tokIdent {
		return Property{}, fmt.Errorf("expected property name, got %s", lx.describe())
	}
	name := lx.lit
	if keywords[name] && !checkNames[name] {
		return Property{}, fmt.Errorf("property name %q is a reserved word", name)
	}
	if err := lx.next(); err != nil {
		return Property{}, err
	}
	if lx.tok != tokColon {
		return Property{}, fmt.Errorf("expected ':', got %s", lx.describe())
	}
	if err := lx.next(); err != nil {
		return Property{}, err
	}
	p := &parser{lx: lx}
	f, err := p.formula(0)
	if err != nil {
		return Property{}, err
	}
	if lx.tok != tokEOF {
		return Property{}, fmt.Errorf("trailing input at %s", lx.describe())
	}
	return Property{Name: name, F: f}, nil
}

// keywords are identifiers with fixed meaning; they cannot name properties
// or signals in formulas.
var keywords = map[string]bool{
	"prop": true, "true": true, "false": true, "AG": true, "EF": true,
	"deadlock": true, "persistent": true, "usc_conflict": true,
	"csc_conflict": true, "marked": true, "excited": true, "enabled": true,
	"deadlock_free": true, "live": true,
}

// checkNames are the reserved words a property may still be named after:
// the names of the standard checks and templates. The name position is
// unambiguous, and Standard uses two of them, so Print(Standard()) parses
// back.
var checkNames = map[string]bool{"deadlock_free": true, "live": true, "persistent": true}

type token int

const (
	tokEOF token = iota
	tokIdent
	tokLParen
	tokRParen
	tokColon
	tokNot     // !
	tokAnd     // & or &&
	tokOr      // | or ||
	tokImplies // ->
	tokIff     // <->
	tokPlus
	tokMinus
	tokTilde
)

type lexer struct {
	src string
	pos int
	tok token
	lit string
}

func (lx *lexer) describe() string {
	switch lx.tok {
	case tokEOF:
		return "end of line"
	case tokIdent:
		return fmt.Sprintf("%q", lx.lit)
	default:
		return fmt.Sprintf("%q", lx.lit)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdent(c byte) bool {
	return isIdentStart(c) || c == '.' || (c >= '0' && c <= '9')
}

func (lx *lexer) next() error {
	for lx.pos < len(lx.src) && (lx.src[lx.pos] == ' ' || lx.src[lx.pos] == '\t' || lx.src[lx.pos] == '\r') {
		lx.pos++
	}
	if lx.pos >= len(lx.src) {
		lx.tok, lx.lit = tokEOF, ""
		return nil
	}
	c := lx.src[lx.pos]
	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdent(lx.src[lx.pos]) {
			lx.pos++
		}
		lx.tok, lx.lit = tokIdent, lx.src[start:lx.pos]
		return nil
	case c == '(':
		lx.tok, lx.lit = tokLParen, "("
	case c == ')':
		lx.tok, lx.lit = tokRParen, ")"
	case c == ':':
		lx.tok, lx.lit = tokColon, ":"
	case c == '!':
		lx.tok, lx.lit = tokNot, "!"
	case c == '&':
		lx.tok, lx.lit = tokAnd, "&"
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '&' {
			lx.pos++
		}
	case c == '|':
		lx.tok, lx.lit = tokOr, "|"
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '|' {
			lx.pos++
		}
	case c == '-':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '>' {
			lx.tok, lx.lit = tokImplies, "->"
			lx.pos++
		} else {
			lx.tok, lx.lit = tokMinus, "-"
		}
	case c == '<':
		if lx.pos+2 < len(lx.src) && lx.src[lx.pos+1] == '-' && lx.src[lx.pos+2] == '>' {
			lx.tok, lx.lit = tokIff, "<->"
			lx.pos += 2
			break
		}
		// Implicit-place name, e.g. <ack-,req+>: lexed as one identifier so
		// marked() can reference places the parser synthesized from
		// transition→transition arcs.
		end := strings.IndexByte(lx.src[lx.pos:], '>')
		if end < 0 {
			return fmt.Errorf("unterminated place name starting at %q", lx.src[lx.pos:])
		}
		lx.tok, lx.lit = tokIdent, lx.src[lx.pos:lx.pos+end+1]
		lx.pos += end // +1 below

	case c == '+':
		lx.tok, lx.lit = tokPlus, "+"
	case c == '~':
		lx.tok, lx.lit = tokTilde, "~"
	default:
		return fmt.Errorf("unexpected character %q", c)
	}
	lx.pos++
	return nil
}

type parser struct {
	lx *lexer
}

// formula parses with precedence climbing: <-> (1, left), -> (2, right),
// | (3, left), & (4, left), then unary.
func (p *parser) formula(depth int) (*Formula, error) {
	return p.iff(depth)
}

func (p *parser) iff(depth int) (*Formula, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("formula nests deeper than %d", maxDepth)
	}
	l, err := p.implies(depth + 1)
	if err != nil {
		return nil, err
	}
	for p.lx.tok == tokIff {
		if err := p.lx.next(); err != nil {
			return nil, err
		}
		r, err := p.implies(depth + 1)
		if err != nil {
			return nil, err
		}
		l = &Formula{Op: OpIff, L: l, R: r}
	}
	return l, nil
}

func (p *parser) implies(depth int) (*Formula, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("formula nests deeper than %d", maxDepth)
	}
	l, err := p.or(depth + 1)
	if err != nil {
		return nil, err
	}
	if p.lx.tok != tokImplies {
		return l, nil
	}
	if err := p.lx.next(); err != nil {
		return nil, err
	}
	r, err := p.implies(depth + 1) // right-associative
	if err != nil {
		return nil, err
	}
	return &Formula{Op: OpImplies, L: l, R: r}, nil
}

func (p *parser) or(depth int) (*Formula, error) {
	l, err := p.and(depth + 1)
	if err != nil {
		return nil, err
	}
	for p.lx.tok == tokOr {
		if err := p.lx.next(); err != nil {
			return nil, err
		}
		r, err := p.and(depth + 1)
		if err != nil {
			return nil, err
		}
		l = &Formula{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) and(depth int) (*Formula, error) {
	l, err := p.unary(depth + 1)
	if err != nil {
		return nil, err
	}
	for p.lx.tok == tokAnd {
		if err := p.lx.next(); err != nil {
			return nil, err
		}
		r, err := p.unary(depth + 1)
		if err != nil {
			return nil, err
		}
		l = &Formula{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary(depth int) (*Formula, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("formula nests deeper than %d", maxDepth)
	}
	switch {
	case p.lx.tok == tokNot:
		if err := p.lx.next(); err != nil {
			return nil, err
		}
		f, err := p.unary(depth + 1)
		if err != nil {
			return nil, err
		}
		return &Formula{Op: OpNot, L: f}, nil
	case p.lx.tok == tokIdent && (p.lx.lit == "AG" || p.lx.lit == "EF"):
		op := OpAG
		if p.lx.lit == "EF" {
			op = OpEF
		}
		if err := p.lx.next(); err != nil {
			return nil, err
		}
		f, err := p.unary(depth + 1)
		if err != nil {
			return nil, err
		}
		return &Formula{Op: op, L: f}, nil
	}
	return p.primary(depth)
}

func (p *parser) primary(depth int) (*Formula, error) {
	lx := p.lx
	switch lx.tok {
	case tokLParen:
		if err := lx.next(); err != nil {
			return nil, err
		}
		f, err := p.formula(depth + 1)
		if err != nil {
			return nil, err
		}
		if lx.tok != tokRParen {
			return nil, fmt.Errorf("expected ')', got %s", lx.describe())
		}
		return f, lx.next()
	case tokIdent:
		name := lx.lit
		if err := lx.next(); err != nil {
			return nil, err
		}
		switch name {
		case "true":
			return &Formula{Op: OpTrue}, nil
		case "false":
			return &Formula{Op: OpFalse}, nil
		case "deadlock":
			return &Formula{Op: OpDeadlock}, nil
		case "usc_conflict":
			return &Formula{Op: OpUSC}, nil
		case "csc_conflict":
			return &Formula{Op: OpCSC}, nil
		case "deadlock_free":
			// Template: the system never reaches a stuck state.
			return ag(not(&Formula{Op: OpDeadlock})), nil
		case "persistent":
			if lx.tok != tokLParen {
				return &Formula{Op: OpPersistent}, nil
			}
			sig, err := p.argIdent()
			if err != nil {
				return nil, err
			}
			return &Formula{Op: OpPersistent, Name: sig}, nil
		case "marked", "excited", "live":
			arg, err := p.argIdent()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			switch name {
			case "marked":
				return &Formula{Op: OpMarked, Name: arg}, nil
			case "excited":
				return &Formula{Op: OpExcited, Name: arg}, nil
			default:
				// Template: from every reachable state an edge of the
				// signal can still eventually fire.
				return ag(&Formula{Op: OpEF, L: &Formula{Op: OpExcited, Name: arg}}), nil
			}
		case "enabled":
			if lx.tok != tokLParen {
				return nil, fmt.Errorf("enabled: expected '(', got %s", lx.describe())
			}
			if err := lx.next(); err != nil {
				return nil, err
			}
			if lx.tok != tokIdent {
				return nil, fmt.Errorf("enabled: expected signal, got %s", lx.describe())
			}
			sig := lx.lit
			if keywords[sig] {
				return nil, fmt.Errorf("enabled: %q is a reserved word", sig)
			}
			if err := lx.next(); err != nil {
				return nil, err
			}
			var dir stg.Dir
			switch lx.tok {
			case tokPlus:
				dir = stg.Rise
			case tokMinus:
				dir = stg.Fall
			case tokTilde:
				dir = stg.Toggle
			default:
				return nil, fmt.Errorf("enabled: expected '+', '-' or '~', got %s", lx.describe())
			}
			if err := lx.next(); err != nil {
				return nil, err
			}
			if lx.tok != tokRParen {
				return nil, fmt.Errorf("enabled: expected ')', got %s", lx.describe())
			}
			return &Formula{Op: OpEnabled, Name: sig, Dir: dir}, lx.next()
		default:
			if keywords[name] {
				return nil, fmt.Errorf("unexpected keyword %q", name)
			}
			return &Formula{Op: OpSignal, Name: name}, nil
		}
	default:
		return nil, fmt.Errorf("expected formula, got %s", lx.describe())
	}
}

// argIdent parses a parenthesized identifier argument: "(" ident ")". The
// caller has consumed the head keyword; the current token must be '('.
func (p *parser) argIdent() (string, error) {
	lx := p.lx
	if lx.tok != tokLParen {
		return "", fmt.Errorf("expected '(', got %s", lx.describe())
	}
	if err := lx.next(); err != nil {
		return "", err
	}
	if lx.tok != tokIdent {
		return "", fmt.Errorf("expected name, got %s", lx.describe())
	}
	name := lx.lit
	if keywords[name] {
		return "", fmt.Errorf("%q is a reserved word", name)
	}
	if err := lx.next(); err != nil {
		return "", err
	}
	if lx.tok != tokRParen {
		return "", fmt.Errorf("expected ')', got %s", lx.describe())
	}
	return name, lx.next()
}
