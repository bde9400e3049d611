package main

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"genas/internal/wire"
)

// childArgsEnv carries the daemon argument vector into a re-executed test
// binary (unit-separator joined), so the federation test runs real separate
// OS processes without needing the go toolchain at test time. Children
// inherit the test binary's build flags — under -race the daemons are
// race-instrumented too.
const childArgsEnv = "GENASD_CHILD_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(childArgsEnv); args != "" {
		os.Exit(run(strings.Split(args, "\x1f"), os.Stderr, nil))
	}
	os.Exit(m.Run())
}

var listeningRE = regexp.MustCompile(`listening on (\S+) with`)

// startProcess spawns one genasd as a separate OS process and returns its
// bound address (scanned from the startup log) and a stop function.
func startProcess(t *testing.T, args ...string) (addr string, stop func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listeningRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrC <- m[1]:
				default:
				}
			}
		}
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Error("daemon did not shut down on SIGTERM")
		}
	}
	t.Cleanup(stop)
	select {
	case addr = <-addrC:
		return addr, stop
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never logged its listen address")
		return "", nil
	}
}

// TestFederationThreeDaemons is the multi-process integration test of the
// broker federation: three genasd processes in a chain A—B—C. A profile
// subscribed at daemon C matches an event published at daemon A two wire
// hops away, and daemon B's stats show early-rejected events for publishes
// nobody beyond its link wants — filtering happens at the link, not the
// endpoint.
func TestFederationThreeDaemons(t *testing.T) {
	const (
		rpcTimeout = 5 * time.Second
		schemaSpec = "temperature=numeric[-30,50]; humidity=numeric[0,100]"
	)
	base := []string{"-addr", "127.0.0.1:0", "-schema", schemaSpec}
	addrA, _ := startProcess(t, append(base, "-node", "A")...)
	addrB, _ := startProcess(t, append(base, "-node", "B", "-peer", addrA)...)
	addrC, _ := startProcess(t, append(base, "-node", "C", "-peer", addrB)...)

	dial := func(addr string) *wire.Client {
		c, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	cliA, cliB, cliC := dial(addrA), dial(addrB), dial(addrC)

	// C wants hot events; B (the middle hop) has a local humidity watcher.
	if err := cliC.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := cliB.Subscribe("humid", "profile(humidity >= 50)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}

	// Publish a hot event at A until the route C→B→A has propagated and the
	// notification crosses both wire hops.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := cliA.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout); err != nil {
			t.Fatal(err)
		}
		var notified bool
		select {
		case n := <-cliC.Notifications():
			if n.Profile != "hot" || n.Event["temperature"] != 41 {
				t.Fatalf("notification = %+v", n)
			}
			notified = true
		case <-time.After(200 * time.Millisecond):
		}
		if notified {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription at C never matched an event published at A")
		}
	}

	// The retry loop above may have left further hot notifications in
	// flight; drain them so the isolation check below only sees what the
	// humid publish produces.
	drained := false
	for !drained {
		select {
		case n := <-cliC.Notifications():
			if n.Profile != "hot" {
				t.Fatalf("unexpected notification %+v", n)
			}
		case <-time.After(300 * time.Millisecond):
			drained = true
		}
	}

	// A humid-only event crosses A→B (B's local subscriber wants it) but is
	// early-rejected at B's link toward C.
	if _, err := cliA.Publish(map[string]float64{"temperature": 0, "humidity": 80}, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		st, err := cliB.Stats(rpcTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if st.Filtered >= 1 {
			if st.Node != "B" || st.Peers != 2 {
				t.Errorf("B stats = %+v, want node B with 2 peers", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("B never early-rejected the humid event: %+v", st)
		}
		time.Sleep(100 * time.Millisecond)
	}
	select {
	case n := <-cliB.Notifications():
		if n.Profile != "humid" {
			t.Errorf("B notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B's local subscriber starved")
	}
	// C never sees the humid event.
	select {
	case n := <-cliC.Notifications():
		t.Fatalf("C notified for an event it never subscribed to: %+v", n)
	case <-time.After(200 * time.Millisecond):
	}

	// A cold event nobody wants is rejected at A's own links: filtered grows
	// at A without crossing a wire.
	if _, err := cliA.Publish(map[string]float64{"temperature": -20, "humidity": 10}, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		st, err := cliA.Stats(rpcTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if st.Filtered >= 1 {
			if st.Forwarded < 2 {
				t.Errorf("A forwarded %d events, want >= 2", st.Forwarded)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("A never early-rejected the cold event: %+v", st)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestFederationFlagValidation: -peer without -node is a configuration
// error.
func TestFederationFlagValidation(t *testing.T) {
	var stderr strings.Builder
	code := run([]string{
		"-addr", "127.0.0.1:0",
		"-schema", "x=numeric[0,1]",
		"-peer", "localhost:1",
	}, &stderr, nil)
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-node") {
		t.Errorf("stderr = %q, want a -node hint", stderr.String())
	}
}

// TestFederatedDaemonSingle: a daemon with -node but no peers serves
// normally and reports its node name in stats.
func TestFederatedDaemonSingle(t *testing.T) {
	addr, _, stop := startDaemon(t, "-node", "solo")
	c, err := wire.DialWith(addr.String(), wire.DialConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Publish(map[string]float64{"temperature": 10, "humidity": 10}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "solo" || st.Peers != 0 {
		t.Errorf("stats = %+v", st)
	}
	if code := stop(); code != 0 {
		t.Errorf("exit = %d", code)
	}
}
