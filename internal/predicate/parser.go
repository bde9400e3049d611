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

// Parse parses one profile-language expression against schema s.
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
	parts := splitTop(body, ';')
	preds := make([]Predicate, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pr, err := parsePredicate(s, part)
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
	}
	return New(s, id, preds...)
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(s *schema.Schema, id ID, text string) *Profile {
	p, err := Parse(s, id, text)
	if err != nil {
		panic(err)
	}
	return p
}

// splitTop splits on sep outside of bracket pairs. The parts take one
// allocation: every sep, bracketed or not, reserves room for one.
func splitTop(s string, sep rune) []string {
	parts := make([]string, 0, strings.Count(s, string(sep))+1)
	depth := 0
	start := 0
	for i, r := range s {
		switch r {
		case '[', '{', '(':
			depth++
		case ']', '}', ')':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + len(string(sep))
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
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
			inner := operand[1 : len(operand)-1]
			lohi := splitTop(inner, ',')
			if len(lohi) != 2 {
				return Predicate{}, fmt.Errorf("%w: range needs two bounds in %q", ErrSyntax, text)
			}
			lo, err := parseValue(dom, strings.TrimSpace(lohi[0]))
			if err != nil {
				return Predicate{}, err
			}
			hi, err := parseValue(dom, strings.TrimSpace(lohi[1]))
			if err != nil {
				return Predicate{}, err
			}
			return NewRange(attr, lo, hi)
		case strings.HasPrefix(operand, "{") && strings.HasSuffix(operand, "}"):
			inner := operand[1 : len(operand)-1]
			var vs []float64
			for _, tok := range splitTop(inner, ',') {
				v, err := parseValue(dom, strings.TrimSpace(tok))
				if err != nil {
					return Predicate{}, err
				}
				vs = append(vs, v)
			}
			return NewIn(attr, vs...)
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
