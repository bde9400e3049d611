package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/wire"
)

// startTestDaemon serves a broker over TCP for CLI tests and returns its
// address.
func startTestDaemon(t *testing.T, opts broker.Options) string {
	t.Helper()
	return startDaemon(t, "temperature=numeric[-30,50]; humidity=numeric[0,100]", opts, nil)
}

// startDaemon is startTestDaemon over the schema spec, federated through
// overlay when it is not nil.
func startDaemon(t *testing.T, spec string, opts broker.Options, overlay wire.Overlay) string {
	t.Helper()
	sch, err := schema.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(brk, nil)
	if overlay != nil {
		srv.SetOverlay(overlay)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
		brk.Close()
	})
	return ln.Addr().String()
}

// cli invokes run with captured io.
func cli(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

// countingOverlay stands in for a federation node that only reports its
// counters.
type countingOverlay struct{}

func (countingOverlay) HandlePeer(conn net.Conn, _ *bufio.Reader, _ wire.Request) { _ = conn.Close() }
func (countingOverlay) ProfileAdded(*predicate.Profile)                           {}
func (countingOverlay) ProfileRemoved(predicate.ID)                               {}
func (countingOverlay) EventPublished(event.Event)                                {}
func (countingOverlay) Stats() (string, int, uint64, uint64)                      { return "B", 2, 40, 9 }
func (countingOverlay) DroppedForwards() uint64                                   { return 7 }

// TestCLIStatsPrintsOverlayCounters: `genas stats` prints a federated
// daemon's link counters, and the dropped forwards only when there are
// some.
func TestCLIStatsPrintsOverlayCounters(t *testing.T) {
	spec := "temperature=numeric[-30,50]; humidity=numeric[0,100]"
	code, out, errOut := cli(t, "", "-addr", startDaemon(t, spec, broker.Options{}, countingOverlay{}), "stats")
	if code != 0 {
		t.Fatalf("stats: %d %s", code, errOut)
	}
	for _, line := range []string{"federation node: B\n", "peers: 2\n", "forwarded: 40\n", "rejected at links: 9\n", "forwards dropped: 7\n"} {
		if !strings.Contains(out, line) {
			t.Errorf("stats output lacks %q:\n%s", line, out)
		}
	}
	if _, out, _ := cli(t, "", "-addr", startTestDaemon(t, broker.Options{}), "stats"); strings.Contains(out, "forwards dropped") {
		t.Errorf("a daemon that dropped nothing prints dropped forwards:\n%s", out)
	}
}

func TestCLIPubSubStatsSchema(t *testing.T) {
	addr := startTestDaemon(t, broker.Options{Shards: 2})

	// Single publish.
	code, out, errOut := cli(t, "", "-addr", addr, "pub", "temperature=10; humidity=50")
	if code != 0 {
		t.Fatalf("pub: %d %s", code, errOut)
	}
	if !strings.Contains(out, "matched 0 profile(s)") {
		t.Errorf("pub output = %q", out)
	}

	// Batch publish from arguments.
	code, out, errOut = cli(t, "", "-addr", addr, "pub",
		"temperature=40; humidity=90", "temperature=-5; humidity=10")
	if code != 0 {
		t.Fatalf("batch pub: %d %s", code, errOut)
	}
	if !strings.Contains(out, "published 2 events") {
		t.Errorf("batch output = %q", out)
	}

	// Batch publish from stdin.
	stdin := "temperature=1; humidity=2\n\nevent(temperature=3; humidity=4)\n"
	code, out, errOut = cli(t, stdin, "-addr", addr, "pub", "-")
	if code != 0 {
		t.Fatalf("stdin pub: %d %s", code, errOut)
	}
	if !strings.Contains(out, "published 2 events") {
		t.Errorf("stdin batch output = %q", out)
	}

	// Stats reflect the five published events.
	code, out, errOut = cli(t, "", "-addr", addr, "stats")
	if code != 0 {
		t.Fatalf("stats: %d %s", code, errOut)
	}
	if !strings.Contains(out, "published: 5") {
		t.Errorf("stats output = %q", out)
	}

	// Schema and quench.
	code, out, _ = cli(t, "", "-addr", addr, "schema")
	if code != 0 || !strings.Contains(out, "temperature=numeric[-30,50]") {
		t.Errorf("schema: %d %q", code, out)
	}
	code, out, _ = cli(t, "", "-addr", addr, "quench", "temperature", "0", "10")
	if code != 0 || !strings.Contains(out, "quenched=true") {
		t.Errorf("quench: %d %q", code, out)
	}
}

// labelSpec is a daemon schema of numeric, integer and categorical
// attributes.
const labelSpec = "temperature=numeric[-30,50]; floor=int[0,12]; severity=cat{low,high}"

// TestCLISchemaReadsBack: `genas schema` prints the spec line genasd -schema
// reads, which parses back into the daemon's schema.
func TestCLISchemaReadsBack(t *testing.T) {
	code, out, errOut := cli(t, "", "-addr", startDaemon(t, labelSpec, broker.Options{}, nil), "schema")
	if code != 0 {
		t.Fatalf("schema: %d %s", code, errOut)
	}
	back, err := schema.ParseSpec(out)
	if err != nil {
		t.Fatalf("schema printed %q, which does not parse: %v", out, err)
	}
	if want, _ := schema.ParseSpec(labelSpec); !reflect.DeepEqual(back, want) {
		t.Errorf("schema printed %q, which parses to %s; want %s", out, back, want)
	}
}

// TestCLIPublishesLabels: pub takes a label on a categorical attribute, as
// an operand and on a stdin line.
func TestCLIPublishesLabels(t *testing.T) {
	addr := startDaemon(t, labelSpec, broker.Options{}, nil)
	c, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("severe", "profile(severity = high)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := cli(t, "", "-addr", addr, "pub", "temperature=40; floor=3; severity=high")
	if code != 0 || !strings.Contains(out, "matched 1 profile(s)") {
		t.Errorf("pub with a label: %d %q %s", code, out, errOut)
	}
	code, out, errOut = cli(t, "temperature=40; floor=3; severity=high\ntemperature=40; floor=3; severity=low\n", "-addr", addr, "pub", "-")
	if code != 0 || !strings.Contains(out, "published 2 events, matched 1 profile(s) total") {
		t.Errorf("stdin pub with labels: %d %q %s", code, out, errOut)
	}
}

// TestListenRendersInSchemaOrder: every notification prints its event in
// schema order, a categorical value by label, in the notation pub reads.
func TestListenRendersInSchemaOrder(t *testing.T) {
	addr := startDaemon(t, labelSpec, broker.Options{}, nil)
	c, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	evs := make([]map[string]float64, 20)
	for i := range evs {
		evs[i] = map[string]float64{"temperature": 40, "floor": 3, "severity": 1}
	}
	if _, err := c.PublishBatch(evs, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	listen(c, 200*time.Millisecond, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(evs) {
		t.Fatalf("%d notifications printed, want %d:\n%s", len(lines), len(evs), out.String())
	}
	for i, line := range lines {
		want := fmt.Sprintf("notification #%d for hot: event(temperature=40; floor=3; severity=high)", i+1)
		if line != want {
			t.Errorf("line %d = %q, want %q", i, line, want)
		}
	}
}

func TestCLISubscribeAndListen(t *testing.T) {
	addr := startTestDaemon(t, broker.Options{})

	// A background publisher fires after the subscription is in place.
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		c, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		for {
			profiles, err := c.Profiles(rpcTimeout)
			if err != nil {
				return
			}
			if len(profiles) > 0 {
				break
			}
		}
		_, _ = c.Publish(map[string]float64{"temperature": 45, "humidity": 80}, rpcTimeout)
	}()

	code, out, errOut := cli(t, "", "-addr", addr, "-wait", "3s", "sub", "hot", "profile(temperature >= 35)", "1.5")
	<-pubDone
	if code != 0 {
		t.Fatalf("sub: %d %s", code, errOut)
	}
	if !strings.Contains(out, "subscribed hot") {
		t.Errorf("sub output = %q", out)
	}
	if !strings.Contains(out, "notification #1 for hot") {
		t.Errorf("missing notification in %q", out)
	}
	if strings.Contains(out, "notifications dropped") {
		t.Errorf("a listener that dropped nothing reports drops: %q", out)
	}
}

// TestListenReportsDrops: a listener whose client dropped notifications says
// how many when it stops listening.
func TestListenReportsDrops(t *testing.T) {
	addr := startTestDaemon(t, broker.Options{})
	c, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	// Rounds smaller than the session's 256-entry queue, with pauses for its
	// writer to drain, so the server drops none and the client's unread
	// channel is what overflows.
	batch := make([][]float64, 100)
	for i := range batch {
		batch[i] = []float64{40, 50}
	}
	for deadline := time.Now().Add(rpcTimeout); c.Dropped() == 0 && time.Now().Before(deadline); {
		if _, err := c.PublishValsBatch(batch, rpcTimeout); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	before := c.Dropped()
	var out bytes.Buffer
	listen(c, 50*time.Millisecond, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var n uint64
	if _, err := fmt.Sscanf(lines[len(lines)-1], "notifications dropped: %d", &n); err != nil || before == 0 || n < before || n > c.Dropped() {
		t.Errorf("after dropping %d to %d notifications the listener ends with %q (%v)", before, c.Dropped(), lines[len(lines)-1], err)
	}
}

func TestCLIProfilesExportImport(t *testing.T) {
	addr := startTestDaemon(t, broker.Options{})
	// Subscribe on a throwaway connection that stays open via -wait 0? No:
	// use the wire client directly so the subscription persists for the
	// export.
	c, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 2, rpcTimeout); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := cli(t, "", "-addr", addr, "profiles")
	if code != 0 || !strings.Contains(out, "hot (priority 2)") {
		t.Fatalf("profiles: %d %q %s", code, out, errOut)
	}

	code, out, errOut = cli(t, "", "-addr", addr, "export")
	if code != 0 || !strings.Contains(out, "temperature >= 35") {
		t.Fatalf("export: %d %q %s", code, out, errOut)
	}

	envelope := strings.ReplaceAll(out, `"hot"`, `"hot2"`)
	code, out, errOut = cli(t, envelope, "-addr", addr, "-wait", "10ms", "import")
	if code != 0 || !strings.Contains(out, "imported 1 profiles") {
		t.Fatalf("import: %d %q %s", code, out, errOut)
	}
}

func TestCLIErrors(t *testing.T) {
	addr := startTestDaemon(t, broker.Options{})
	cases := []struct {
		name  string
		stdin string
		args  []string
		want  int
	}{
		{"no command", "", []string{"-addr", addr}, 2},
		{"unknown command", "", []string{"-addr", addr, "frobnicate"}, 2},
		{"bad flag", "", []string{"-bogus"}, 2},
		{"sub missing args", "", []string{"-addr", addr, "sub", "x"}, 2},
		{"sub bad priority", "", []string{"-addr", addr, "sub", "x", "profile(temperature >= 0)", "high"}, 2},
		{"sub bad profile", "", []string{"-addr", addr, "sub", "x", "profile(wat >= 0)"}, 1},
		{"pub missing args", "", []string{"-addr", addr, "pub"}, 2},
		{"pub bad event", "", []string{"-addr", addr, "pub", "temperature"}, 2},
		{"pub bad batch member", "", []string{"-addr", addr, "pub", "temperature=1; humidity=2", "nope"}, 2},
		{"pub empty stdin", "", []string{"-addr", addr, "pub", "-"}, 2},
		{"pub bad stdin line", "temperature=banana\n", []string{"-addr", addr, "pub", "-"}, 2},
		{"pub unknown attribute", "", []string{"-addr", addr, "pub", "pressure=1"}, 1},
		{"quench wrong arity", "", []string{"-addr", addr, "quench", "temperature", "1"}, 2},
		{"quench bad bounds", "", []string{"-addr", addr, "quench", "temperature", "a", "b"}, 2},
		{"quench unknown attr", "", []string{"-addr", addr, "quench", "pressure", "0", "1"}, 1},
		{"dial failure", "", []string{"-addr", "127.0.0.1:1", "stats"}, 1},
		{"import garbage", "{bad", []string{"-addr", addr, "import"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := cli(t, tc.stdin, tc.args...)
			if code != tc.want {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.want, errOut)
			}
		})
	}
}

func TestCLIHelpExitsZero(t *testing.T) {
	if code, _, errOut := cli(t, "", "-h"); code != 0 || !strings.Contains(errOut, "-addr") {
		t.Errorf("-h: exit %d, stderr %q", code, errOut)
	}
}

func TestCLIDashMixedWithOperands(t *testing.T) {
	addr := startTestDaemon(t, broker.Options{})
	code, _, errOut := cli(t, "", "-addr", addr, "pub", "temperature=1; humidity=2", "-")
	if code != 2 || !strings.Contains(errOut, "only pub operand") {
		t.Errorf("mixed '-' operand: exit %d, stderr %q", code, errOut)
	}
}
