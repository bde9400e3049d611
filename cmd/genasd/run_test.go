package main

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"genas/internal/wire"
)

// startDaemon runs the daemon main loop on an ephemeral port and returns its
// address plus a stop function that signals shutdown and waits for exit.
func startDaemon(t *testing.T, extraArgs ...string) (net.Addr, *bytes.Buffer, func() int) {
	t.Helper()
	var stderr bytes.Buffer
	var mu sync.Mutex // stderr is written by the daemon goroutine
	w := &lockedWriter{buf: &stderr, mu: &mu}
	ready := make(chan net.Addr, 1)
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-schema", "temperature=numeric[-30,50]; humidity=numeric[0,100]",
	}, extraArgs...)
	code := make(chan int, 1)
	go func() { code <- run(args, w, ready) }()
	select {
	case addr := <-ready:
		return addr, &stderr, func() int {
			_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
			select {
			case c := <-code:
				return c
			case <-time.After(10 * time.Second):
				t.Fatal("daemon did not shut down")
				return -1
			}
		}
	case c := <-code:
		t.Fatalf("daemon exited early with %d: %s", c, stderr.String())
		return nil, nil, nil
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
		return nil, nil, nil
	}
}

type lockedWriter struct {
	buf *bytes.Buffer
	mu  *sync.Mutex
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestDaemonEndToEnd boots the daemon (sharded, adaptive) and exercises the
// wire surface including the batch frame, then shuts it down via SIGTERM.
func TestDaemonEndToEnd(t *testing.T) {
	addr, _, stop := startDaemon(t,
		"-shards", "2", "-adaptive", "-goal", "user", "-window", "64",
		"-measure", "event", "-attrs", "A2", "-search", "linear")

	c, err := wire.DialWith(addr.String(), wire.DialConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	matched, err := c.Publish(map[string]float64{"temperature": 40, "humidity": 10}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Errorf("matched = %d", matched)
	}
	counts, err := c.PublishBatch([]map[string]float64{
		{"temperature": 36, "humidity": 1},
		{"temperature": 0, "humidity": 1},
		{"temperature": 50, "humidity": 99},
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 || counts[0] != 1 || counts[1] != 0 || counts[2] != 1 {
		t.Errorf("batch counts = %v", counts)
	}
	st, err := c.Stats(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != 4 || st.Subscriptions != 1 {
		t.Errorf("stats = %+v", st)
	}

	if code := stop(); code != 0 {
		t.Errorf("daemon exit code = %d", code)
	}
}

// TestDaemonLogsRestructures: an adaptive daemon writes one line per
// restructure, taken from the adaptor's decision ring, naming the attributes
// it reordered for and what the restructure touched.
func TestDaemonLogsRestructures(t *testing.T) {
	addr, stderr, stop := startDaemon(t, "-adaptive", "-window", "64")
	c, err := wire.DialWith(addr.String(), wire.DialConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	batch := make([]map[string]float64, 128)
	for i := range batch {
		batch[i] = map[string]float64{"temperature": 40 + float64(i%8), "humidity": float64(i * 100 / len(batch))}
	}
	if _, err := c.PublishBatch(batch, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if code := stop(); code != 0 {
		t.Errorf("daemon exit code = %d", code)
	}
	out := stderr.String()
	if !strings.Contains(out, "adaptive: restructure 1 after ") || !strings.Contains(out, " temperature tv=") ||
		!strings.Contains(out, "nodes re-sorted") {
		t.Errorf("no restructure line in the daemon's log:\n%s", out)
	}
}

// TestDaemonDefaults covers -defaults: the configured attribute may be
// omitted from publish frames, everything else stays mandatory.
func TestDaemonDefaults(t *testing.T) {
	addr, _, stop := startDaemon(t, "-defaults", "humidity=0")
	c, err := wire.DialWith(addr.String(), wire.DialConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("dry-heat", "profile(temperature >= 35; humidity <= 5)", 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	matched, err := c.Publish(map[string]float64{"temperature": 40}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Errorf("matched = %d, want the humidity default 0 applied", matched)
	}
	if _, err := c.Publish(map[string]float64{"humidity": 10}, 5*time.Second); err == nil {
		t.Error("omitting an attribute without a default must still fail")
	}
	if code := stop(); code != 0 {
		t.Errorf("exit = %d", code)
	}
}

// TestDaemonShardsDefault covers -shards 0 (GOMAXPROCS) startup.
func TestDaemonShardsDefault(t *testing.T) {
	addr, stderr, stop := startDaemon(t, "-shards", "0")
	c, err := wire.DialWith(addr.String(), wire.DialConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(5 * time.Second); err != nil {
		t.Error(err)
	}
	_ = c.Close()
	if code := stop(); code != 0 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "shards") {
		t.Errorf("startup log missing shard count: %q", stderr.String())
	}
}

// TestDaemonBadFlags covers every configuration error exit.
func TestDaemonBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"missing schema", []string{}, 2},
		{"bad schema", []string{"-schema", "x=banana[1,2]"}, 2},
		{"bad measure", []string{"-schema", "x=numeric[0,1]", "-measure", "bogus"}, 2},
		{"bad attrs", []string{"-schema", "x=numeric[0,1]", "-attrs", "A9"}, 2},
		{"bad search", []string{"-schema", "x=numeric[0,1]", "-search", "quantum"}, 2},
		{"bad shards", []string{"-schema", "x=numeric[0,1]", "-shards", "-3"}, 2},
		{"bad defaults syntax", []string{"-schema", "x=numeric[0,1]", "-defaults", "x"}, 2},
		{"bad defaults attr", []string{"-schema", "x=numeric[0,1]", "-defaults", "y=0"}, 2},
		{"bad defaults domain", []string{"-schema", "x=numeric[0,1]", "-defaults", "x=7"}, 2},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"bad addr", []string{"-schema", "x=numeric[0,1]", "-addr", "256.0.0.1:bogus"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(tc.args, &stderr, nil); code != tc.want {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.want, stderr.String())
			}
		})
	}
}

func TestDaemonHelpExitsZero(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, &stderr, nil); code != 0 {
		t.Errorf("-h: exit %d (%s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-schema") {
		t.Errorf("usage missing: %q", stderr.String())
	}
}
