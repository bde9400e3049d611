package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/schema"
	"genas/internal/wire"
)

func TestParseEventArg(t *testing.T) {
	ev, err := parseEventArg("temperature=40; humidity=90.5")
	if err != nil {
		t.Fatal(err)
	}
	if ev["temperature"] != 40 || ev["humidity"] != 90.5 {
		t.Errorf("parsed = %v", ev)
	}
	// The paper's event() notation is accepted too.
	ev, err = parseEventArg("event(temperature=30; humidity=90)")
	if err != nil {
		t.Fatal(err)
	}
	if ev["temperature"] != 30 {
		t.Errorf("parsed = %v", ev)
	}
	for _, bad := range []string{"temperature", "temperature=hot"} {
		if _, err := parseEventArg(bad); err == nil {
			t.Errorf("parseEventArg(%q) must fail", bad)
		}
	}
	// Empty segments are tolerated.
	ev, err = parseEventArg("a=1;;b=2;")
	if err != nil || len(ev) != 2 {
		t.Errorf("parsed = %v, err %v", ev, err)
	}
}

func TestEnvelopeImportExportHelpers(t *testing.T) {
	// Round-trip through the wire against a local daemon.
	sch, err := schema.ParseSpec("temperature=numeric[-30,50]; humidity=numeric[0,100]")
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	srv := wire.NewServer(brk, nil)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	defer func() { cancel(); srv.Close(); <-done }()

	c, err := wire.DialWith(ln.Addr().String(), wire.DialConfig{Timeout: 5 * time.Second})
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
	c2, err := wire.DialWith(ln.Addr().String(), wire.DialConfig{Timeout: 5 * time.Second})
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
