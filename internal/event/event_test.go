package event

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"genas/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	temp, _ := schema.NewNumericDomain(-30, 50)
	hum, _ := schema.NewNumericDomain(0, 100)
	state, _ := schema.NewCategoricalDomain("ok", "alarm")
	return schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
		schema.Attribute{Name: "state", Domain: state},
	)
}

func TestNewValidates(t *testing.T) {
	s := testSchema(t)
	if _, err := New(s, 30, 90); !errors.Is(err, ErrArity) {
		t.Error("wrong arity must error")
	}
	if _, err := New(s, 60, 90, 0); !errors.Is(err, schema.ErrValueOutOfDomain) {
		t.Error("out-of-domain must error")
	}
	ev, err := New(s, 30, 90, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.At(0) != 30 || ev.At(2) != 1 {
		t.Error("values wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := testSchema(t)
	ev := MustNew(s, 30, 90, 0)
	cp := ev.Clone()
	cp.Vals[0] = -5
	if ev.Vals[0] != 30 {
		t.Error("clone aliases original")
	}
}

func TestRenderAndParseRoundTrip(t *testing.T) {
	s := testSchema(t)
	ev := MustNew(s, 30, 90, 1)
	text := ev.Render(s)
	if !strings.Contains(text, "temperature=30") || !strings.Contains(text, "state=alarm") {
		t.Errorf("render = %q", text)
	}
	back, err := Parse(s, text, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ev.Vals {
		if back.Vals[i] != ev.Vals[i] {
			t.Errorf("attr %d: %g != %g", i, back.Vals[i], ev.Vals[i])
		}
	}
}

func TestParsePaperNotation(t *testing.T) {
	s := testSchema(t)
	ev, err := Parse(s, "event(temperature=30; humidity = 90; state=ok)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Vals[0] != 30 || ev.Vals[1] != 90 || ev.Vals[2] != 0 {
		t.Errorf("parsed %v", ev.Vals)
	}
	// Attribute order in the text must not matter.
	ev2, err := Parse(s, "humidity=90; state=ok; temperature=30", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Vals[0] != 30 {
		t.Error("order independence broken")
	}
}

func TestParseErrors(t *testing.T) {
	s := testSchema(t)
	for _, bad := range []string{
		"event(temperature=30",                                // unbalanced
		"event(temperature=30; humidity=90)",                  // missing state
		"event(temperature=30; temperature=30; humidity=90)",  // duplicate
		"event(temperature=hot; humidity=90; state=ok)",       // bad number
		"event(temperature=30; humidity=90; state=exploding)", // bad label
		"event(nosuch=1; humidity=90; state=ok)",              // unknown attr
		"event(temperature 30; humidity=90; state=ok)",        // missing '='
	} {
		if _, err := Parse(s, bad, nil); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

// TestScan is the walk of the notation every reader shares: `genas pub`
// operands and stdin lines, `genasd -defaults` and Parse. It reads a partial
// event by name, a label on a categorical attribute as its code.
func TestScan(t *testing.T) {
	s := testSchema(t)
	for text, want := range map[string]map[string]float64{
		"temperature=40; humidity=90.5":      {"temperature": 40, "humidity": 90.5},
		"event(temperature=30; humidity=90)": {"temperature": 30, "humidity": 90},
		"temperature=1;;humidity=2;":         {"temperature": 1, "humidity": 2}, // empty segments
		"state=alarm":                        {"state": 1},
		"state=0; temperature = -3":          {"state": 0, "temperature": -3},
		"pressure=1":                         {"pressure": 1}, // unknown: Complete refuses it
		"  ":                                 {},
	} {
		got, err := Scan(s, text)
		if err != nil || !maps.Equal(got, want) {
			t.Errorf("Scan(%q) = %v, %v; want %v", text, got, err, want)
		}
	}
	for _, bad := range []string{
		"temperature",                    // missing '='
		"temperature=hot",                // not a number, and no label
		"humidity=low",                   // a label of no attribute here
		"pressure=high",                  // an unknown name takes numbers only
		"state=exploding",                // not a label of state
		"temperature=1; temperature=2",   // duplicate
		"event(temperature=30",           // unbalanced
		"temperature=30; state=alarm; =", // a value without a name is not a number
	} {
		if m, err := Scan(s, bad); !errors.Is(err, ErrSyntax) {
			t.Errorf("Scan(%q) = %v, %v; want ErrSyntax", bad, m, err)
		}
	}
}

// TestComplete pins the completion of a partial event: a full map converts
// as it is, an omitted attribute takes its default, a named value beats the
// default, and an unknown name or an omitted attribute without a default
// fails with its sentinel.
func TestComplete(t *testing.T) {
	s := testSchema(t)
	d, err := NewDefaults(s, map[string]float64{"state": 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m    map[string]float64
		d    *Defaults
		want []float64
		err  error
	}{
		{map[string]float64{"temperature": 1, "humidity": 2, "state": 0}, nil, []float64{1, 2, 0}, nil},
		{map[string]float64{"temperature": 1, "humidity": 2}, nil, nil, ErrArity},
		{map[string]float64{"temperature": 1, "humidity": 2}, d, []float64{1, 2, 1}, nil},
		{map[string]float64{"temperature": 1, "humidity": 2, "state": 0}, d, []float64{1, 2, 0}, nil},
		{map[string]float64{"temperature": 1, "state": 0}, d, nil, ErrArity},
		{map[string]float64{"temperature": 1, "humidity": 2, "pressure": 3}, d, nil, schema.ErrUnknownAttribute},
	} {
		vals := make([]float64, s.N())
		err := Complete(s, vals, tc.m, tc.d)
		if !errors.Is(err, tc.err) || (err == nil && !slices.Equal(vals, tc.want)) {
			t.Errorf("Complete(%v, defaults %v) = %v, %v; want %v, %v", tc.m, tc.d != nil, vals, err, tc.want, tc.err)
		}
	}
	full := map[string]float64{"temperature": 1, "humidity": 2, "state": 0}
	vals := make([]float64, s.N())
	if n := testing.AllocsPerRun(100, func() { _ = Complete(s, vals, full, d) }); n != 0 {
		t.Errorf("completing a map allocates %v times, want 0", n)
	}
}

// TestParseFillsDefaults: Parse completes a partial event from the defaults
// and still refuses an omission they do not cover.
func TestParseFillsDefaults(t *testing.T) {
	s := testSchema(t)
	d, err := NewDefaults(s, map[string]float64{"state": 1})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Parse(s, "temperature=30; humidity=90", d)
	if err != nil || !slices.Equal(ev.Vals, []float64{30, 90, 1}) {
		t.Errorf("Parse with a default = %v, %v", ev.Vals, err)
	}
	if _, err := Parse(s, "temperature=30; state=ok", d); !errors.Is(err, ErrArity) {
		t.Errorf("omitting humidity = %v, want ErrArity", err)
	}
}
