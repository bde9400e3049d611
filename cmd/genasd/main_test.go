package main

import (
	"testing"

	"genas"
	"genas/internal/event"
)

// TestParseDefaults pins the notation of `genasd -defaults`, read as the
// daemon reads it: through event.Scan over the -schema it serves.
func TestParseDefaults(t *testing.T) {
	sch, err := genas.ParseSchema("radiation=numeric[0,10]; humidity=numeric[0,1]")
	if err != nil {
		t.Fatal(err)
	}
	d, err := event.Scan(sch, "radiation=1; humidity=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || d["radiation"] != 1 || d["humidity"] != 0.5 {
		t.Errorf("defaults = %v", d)
	}
	if d, err := event.Scan(sch, "  "); err != nil || len(d) != 0 {
		t.Errorf("blank spec: %v, %v", d, err)
	}
	if _, err := event.Scan(sch, "radiation"); err == nil {
		t.Error("missing '=' must fail")
	}
	if _, err := event.Scan(sch, "radiation=low"); err == nil {
		t.Error("non-numeric value must fail")
	}
}
