package schema

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec builds a schema from a compact textual specification, used by
// the daemon and tools to define the generic service's attributes at
// runtime:
//
//	temperature=numeric[-30,50]; humidity=numeric[0,100]; floor=int[0,12]; state=cat{ok,warn,alarm}
//
// Attributes are separated by ';'.
func ParseSpec(spec string) (*Schema, error) {
	var attrs []Attribute
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("%w: missing '=' in %q", ErrBadDomain, part)
		}
		name := strings.TrimSpace(part[:eq])
		dspec := strings.TrimSpace(part[eq+1:])
		dom, err := parseDomainSpec(dspec)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", name, err)
		}
		attrs = append(attrs, Attribute{Name: name, Domain: dom})
	}
	return New(attrs...)
}

// Spec renders s as the one specification line ParseSpec reads back into
// the same schema: the daemon logs it, and `genas schema` prints it. Bounds
// print in the shortest form that parses back to the same float. (String is
// the diagnostic spelling, which peers exchange in their hellos.)
func (s *Schema) Spec() string {
	var b strings.Builder
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString("; ")
		}
		switch d := a.Domain; d.Kind() {
		case KindCategorical:
			fmt.Fprintf(&b, "%s=cat{%s}", a.Name, strings.Join(d.Labels(), ","))
		case KindInteger:
			fmt.Fprintf(&b, "%s=int[%g,%g]", a.Name, d.Lo(), d.Hi())
		default:
			fmt.Fprintf(&b, "%s=numeric[%g,%g]", a.Name, d.Lo(), d.Hi())
		}
	}
	return b.String()
}

func parseDomainSpec(spec string) (Domain, error) {
	switch {
	case strings.HasPrefix(spec, "numeric[") && strings.HasSuffix(spec, "]"):
		lo, hi, err := parseBounds(spec[len("numeric[") : len(spec)-1])
		if err != nil {
			return Domain{}, err
		}
		return NewNumericDomain(lo, hi)
	case strings.HasPrefix(spec, "int[") && strings.HasSuffix(spec, "]"):
		lo, hi, err := parseBounds(spec[len("int[") : len(spec)-1])
		if err != nil {
			return Domain{}, err
		}
		return NewIntegerDomain(int(lo), int(hi))
	case strings.HasPrefix(spec, "cat{") && strings.HasSuffix(spec, "}"):
		labels := strings.Split(spec[len("cat{"):len(spec)-1], ",")
		for i := range labels {
			labels[i] = strings.TrimSpace(labels[i])
		}
		return NewCategoricalDomain(labels...)
	default:
		return Domain{}, fmt.Errorf("%w: unrecognized domain spec %q", ErrBadDomain, spec)
	}
}

func parseBounds(body string) (float64, float64, error) {
	parts := strings.Split(body, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("%w: want lo,hi in %q", ErrBadDomain, body)
	}
	lo, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad lower bound %q", ErrBadDomain, parts[0])
	}
	hi, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad upper bound %q", ErrBadDomain, parts[1])
	}
	return lo, hi, nil
}
