package predicate

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"genas/internal/schema"
)

// The profile language mirrors the paper's notation:
//
//	profile(temperature <= 35; humidity = 90; radiation = *)
//	profile(temperature in [-30,-20]; radiation in [40,100])
//	profile(severity in {low, high})
//
// Predicates are separated by ';'. Values are numbers or categorical labels.
// '*' is the don't-care value. Range brackets are inclusive on both ends.

// ErrSyntax reports a malformed profile expression.
var ErrSyntax = errors.New("predicate: syntax error")

// Parse parses one profile-language expression against schema s. It cuts
// the expression in place and fills the profile's predicate table as it
// reads, so a profile costs its Profile, its table and each point set's
// operands.
func Parse(s *schema.Schema, id ID, text string) (*Profile, error) {
	body := strings.TrimSpace(text)
	if strings.HasPrefix(body, "profile(") {
		if !strings.HasSuffix(body, ")") {
			return nil, fmt.Errorf("%w: missing closing parenthesis in %q", ErrSyntax, text)
		}
		body = body[len("profile(") : len(body)-1]
	}
	if strings.TrimSpace(body) == "" {
		return nil, fmt.Errorf("%w: empty profile body", ErrSyntax)
	}
	p := &Profile{ID: id, Preds: make([]Predicate, s.N())}
	n, specified := 0, 0
	var bad error // New's verdict, which a syntax error further on overrides
	for more := true; more; {
		var part string
		part, body, more = cutTop(body, ';')
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		pr, err := parsePredicate(s, part)
		if err != nil {
			return nil, err
		}
		if n++; bad == nil {
			bad = p.add(pr, &specified)
		}
	}
	return p.finish(n, specified, bad)
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(s *schema.Schema, id ID, text string) *Profile {
	p, err := Parse(s, id, text)
	if err != nil {
		panic(err)
	}
	return p
}

// cutTop slices s around its first sep outside bracket pairs; found is false,
// and before all of s, when it has none.
func cutTop(s string, sep byte) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{', '(':
			depth++
		case ']', '}', ')':
			depth--
		case sep:
			if depth == 0 {
				return s[:i], s[i+1:], true
			}
		}
	}
	return s, "", false
}

func parsePredicate(s *schema.Schema, text string) (Predicate, error) {
	// Tokenize: NAME OP OPERAND.
	i := 0
	for i < len(text) && (unicode.IsLetter(rune(text[i])) || unicode.IsDigit(rune(text[i])) || text[i] == '_' || text[i] == '-') {
		i++
	}
	name := strings.TrimSpace(text[:i])
	rest := strings.TrimSpace(text[i:])
	if name == "" {
		return Predicate{}, fmt.Errorf("%w: missing attribute name in %q", ErrSyntax, text)
	}
	attr, err := s.Index(name)
	if err != nil {
		return Predicate{}, err
	}
	dom := s.At(attr).Domain

	opText := ""
	for _, cand := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if strings.HasPrefix(rest, cand) {
			opText = cand
			break
		}
	}
	if opText == "" {
		if strings.HasPrefix(rest, "in ") || strings.HasPrefix(rest, "in[") || strings.HasPrefix(rest, "in{") {
			opText = "in"
		} else {
			return Predicate{}, fmt.Errorf("%w: missing operator in %q", ErrSyntax, text)
		}
	}
	operand := strings.TrimSpace(rest[len(opText):])
	if operand == "" {
		return Predicate{}, fmt.Errorf("%w: missing operand in %q", ErrSyntax, text)
	}

	if opText == "=" && operand == "*" {
		return NewAny(attr), nil
	}

	switch opText {
	case "in":
		switch {
		case strings.HasPrefix(operand, "[") && strings.HasSuffix(operand, "]"):
			loText, hiText, ok := cutTop(operand[1:len(operand)-1], ',')
			if _, _, more := cutTop(hiText, ','); !ok || more {
				return Predicate{}, fmt.Errorf("%w: range needs two bounds in %q", ErrSyntax, text)
			}
			lo, err := parseValue(dom, strings.TrimSpace(loText))
			if err != nil {
				return Predicate{}, err
			}
			hi, err := parseValue(dom, strings.TrimSpace(hiText))
			if err != nil {
				return Predicate{}, err
			}
			return NewRange(attr, lo, hi)
		case strings.HasPrefix(operand, "{") && strings.HasSuffix(operand, "}"):
			inner := operand[1 : len(operand)-1]
			vs := make([]float64, 0, strings.Count(inner, ",")+1)
			for more := true; more; {
				var tok string
				tok, inner, more = cutTop(inner, ',')
				v, err := parseValue(dom, strings.TrimSpace(tok))
				if err != nil {
					return Predicate{}, err
				}
				vs = append(vs, v)
			}
			return ownIn(attr, vs)
		default:
			return Predicate{}, fmt.Errorf("%w: 'in' needs [lo,hi] or {v,…} in %q", ErrSyntax, text)
		}
	default:
		v, err := parseValue(dom, operand)
		if err != nil {
			return Predicate{}, err
		}
		var op Op
		switch opText {
		case "=":
			op = OpEq
		case "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		}
		return NewComparison(attr, op, v)
	}
}

// parseValue parses a numeric literal or a categorical label for dom.
func parseValue(dom schema.Domain, tok string) (float64, error) {
	if dom.Kind() == schema.KindCategorical {
		if c, ok := dom.Code(tok); ok {
			return float64(c), nil
		}
		// Fall through: numeric code literal is also accepted.
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad value %q", ErrSyntax, tok)
	}
	return v, nil
}
