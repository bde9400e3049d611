package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/schema"
	"genas/internal/wire"
)

// TestParseEventArg pins the notation of a `genas pub` operand, read as the
// command reads it: through event.Scan over the schema the daemon announced.
func TestParseEventArg(t *testing.T) {
	sch, err := schema.ParseSpec("temperature=numeric[-30,50]; humidity=numeric[0,100]")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := event.Scan(sch, "temperature=40; humidity=90.5")
	if err != nil {
		t.Fatal(err)
	}
	if ev["temperature"] != 40 || ev["humidity"] != 90.5 {
		t.Errorf("parsed = %v", ev)
	}
	// The paper's event() notation is accepted too.
	ev, err = event.Scan(sch, "event(temperature=30; humidity=90)")
	if err != nil {
		t.Fatal(err)
	}
	if ev["temperature"] != 30 {
		t.Errorf("parsed = %v", ev)
	}
	for _, bad := range []string{"temperature", "temperature=hot"} {
		if _, err := event.Scan(sch, bad); err == nil {
			t.Errorf("event.Scan(%q) must fail", bad)
		}
	}
	// Empty segments are tolerated.
	ev, err = event.Scan(sch, "temperature=1;;humidity=2;")
	if err != nil || len(ev) != 2 {
		t.Errorf("parsed = %v, err %v", ev, err)
	}
}

// Regenerate testdata/export.golden with:
//
//	go test ./cmd/genas -run TestExportGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestExportGolden pins the export format byte for byte: a numeric and a
// categorical attribute, and two profiles of which one has a priority.
func TestExportGolden(t *testing.T) {
	addr := startDaemon(t, "temperature=numeric[-30,50]; site=cat{north,south}", broker.Options{}, nil)
	c, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 2, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("south", "profile(site = south; temperature in [-10,20])", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := exportEnvelope(c, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "export.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("export drifted from the recorded format.\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestEnvelopeImportExportHelpers(t *testing.T) {
	// Round-trip through the wire against a local daemon.
	addr := startTestDaemon(t, broker.Options{})
	c, err := wire.DialWith(addr, wire.DialConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := exportEnvelope(c, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "temperature >= 35") {
		t.Errorf("export missing profile: %s", buf.String())
	}

	// Import the same envelope on a second connection: ids collide with the
	// first connection's subscription, so rewrite them first.
	doc := strings.ReplaceAll(buf.String(), `"hot"`, `"hot2"`)
	c2, err := wire.DialWith(addr, wire.DialConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	n, err := importEnvelope(c2, strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("imported %d profiles", n)
	}
	profiles, err := c2.Profiles(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Errorf("daemon should hold 2 profiles, got %+v", profiles)
	}
	if _, err := importEnvelope(c2, strings.NewReader("{bad")); err == nil {
		t.Error("bad envelope must fail")
	}
	if _, err := importEnvelope(c2, strings.NewReader(`{"version":9}`)); err == nil {
		t.Error("version mismatch must fail")
	}
}
