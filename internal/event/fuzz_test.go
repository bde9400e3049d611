package event

import (
	"testing"

	"genas/internal/schema"
)

// FuzzParseEvent asserts the event-notation parser never panics: every input
// either parses into a schema-valid event or returns an error, and a parsed
// event renders back into a parseable notation.
func FuzzParseEvent(f *testing.F) {
	// Seeds from the paper's notation (§3) plus edge shapes.
	for _, seed := range []string{
		"event(temperature=30; humidity=90; severity=low)",
		"event(humidity=90; temperature=-30; severity=2)",
		"temperature=0; humidity=0; severity=high",
		"event(temperature=30; humidity=90)",
		"event(temperature=30; temperature=30; humidity=1; severity=low)",
		"event(temperature=1e999; humidity=0; severity=low)",
		"event(temperature=NaN; humidity=0; severity=low)",
		"event(temperature=30; humidity=0.5; severity=low)",
		"event(bogus=1)",
		"event(temperature=30; humidity=90; severity=low",
		"event()",
		"; ; ;",
		"=",
	} {
		f.Add(seed)
	}
	temp, _ := schema.NewNumericDomain(-30, 50)
	hum, _ := schema.NewIntegerDomain(0, 100)
	sev, _ := schema.NewCategoricalDomain("low", "mid", "high")
	s := schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
		schema.Attribute{Name: "severity", Domain: sev},
	)
	f.Fuzz(func(t *testing.T, text string) {
		ev, err := Parse(s, text, nil)
		if err != nil {
			return
		}
		for i, v := range ev.Vals {
			if err := s.Validate(i, v); err != nil {
				t.Fatalf("Parse(%q) accepted schema-invalid value %v for attribute %d: %v", text, v, i, err)
			}
		}
		rendered := ev.Render(s)
		if _, err := Parse(s, rendered, nil); err != nil {
			t.Fatalf("round trip failed: Parse(%q) ok, but rendering %q does not re-parse: %v",
				text, rendered, err)
		}
	})
}
