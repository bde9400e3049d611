package wire

import (
	"bufio"
	"context"
	"io"
	"log"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/schema"
)

// TestOutboxDoesNotAllocate pins a session's send path: once its outbox is
// warm, a reply encoded in place and a burst of 64 notifications drained and
// encoded by the writer go out without allocating. (One of the writer's two
// buffers may still grow once, when a round gathers more than any before it;
// that is why the count is per round.)
func TestOutboxDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	server := <-accepted
	defer func() { _ = server.Close() }()
	var received atomic.Int64
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := client.Read(buf)
			received.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()

	const burst = 64
	notes := make(chan broker.Notification, burst)
	out := NewOutbox(server, notifyQueue, log.New(io.Discard, "", 0))
	out.notify(notes)
	defer func() { close(notes); <-out.Close() }()
	vals := []float64{41, 10}
	reply := Response{Type: MsgOK, Op: OpPublish, Matched: burst}
	// Every notification is an event of its own, so the bytes sent do not
	// depend on how the writer's wake-ups split the burst.
	size := int64(len(appendOKFrame(nil, 1, burst)) + burst*len(appendNotifyGroupFrame(nil, 1, vals, []string{"hot"})))
	var sent int64
	round := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := out.reply(1, reply); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < burst; i++ {
			notes <- broker.Notification{Profile: "hot", Event: event.Event{Seq: i + 1, Vals: vals}}
		}
		sent += size
		deadline := time.Now().Add(rpcTimeout)
		for received.Load() < sent && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		runtime.ReadMemStats(&after)
		if got := received.Load(); got != sent {
			t.Fatalf("received %d bytes, want %d", got, sent)
		}
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 5; i++ {
		round() // the writer's two buffers grow to size
	}
	const rounds = 20
	var allocs uint64
	for i := 0; i < rounds; i++ {
		allocs += round()
	}
	if allocs/rounds != 0 {
		t.Errorf("%d rounds of a reply and %d notifications allocated %d times", rounds, burst, allocs)
	}
}

// TestSessionRunsTwoGoroutines: a client session, subscribed or not, runs its
// request loop and its outbox's writer, which also forwards its
// notifications — nothing else.
func TestSessionRunsTwoGoroutines(t *testing.T) {
	addr := startServer(t)
	rawDial(t, addr) // accepted: Serve and its watcher run
	before := runtime.NumGoroutine()
	// Let the goroutines of the tests before finish exiting.
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	rc := rawDial(t, addr)
	rc.call(Request{Op: OpSubscribe, ID: "hot", Profile: "profile(temperature >= 35)"})
	if n := runtime.NumGoroutine() - before; n != 2 {
		t.Errorf("a subscribed session runs %d goroutines, want 2", n)
	}
	_ = rc.conn.Close()
	deadline := time.Now().Add(rpcTimeout)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine() - before; n > 0 {
		t.Errorf("%d goroutines outlive the session", n)
	}
}

// TestOutboxFlushesBeforeClose: what is queued before Close is written
// before the writer exits, and an event frame beyond the budget is not.
func TestOutboxFlushesBeforeClose(t *testing.T) {
	ours, theirs := net.Pipe()
	defer func() { _ = theirs.Close() }()
	out := NewOutbox(ours, 1, log.New(io.Discard, "", 0))
	out.Send([]byte("hello\n"))
	if !out.SendEvent([]byte("event\n")) || out.SendEvent([]byte("over budget\n")) {
		t.Fatal("a budget of one event frame took none or two")
	}
	done := out.Close()
	rd := bufio.NewReader(theirs)
	for _, want := range []string{"hello", "event"} {
		if line, err := ReadLine(rd); err != nil || string(line) != want {
			t.Fatalf("read %q, %v; want %q", line, err, want)
		}
	}
	<-done
	_ = ours.Close()
	if line, err := ReadLine(rd); err != io.EOF {
		t.Errorf("after the queued frames the peer read %q, %v", line, err)
	}
}

// TestUnreadRepliesStopTheSession: a client that pipelines requests and never
// reads a reply is not read without bound. Once 64 KiB of replies
// wait behind the writer's blocked write, the request loop stops reading, and
// the client's writes stall (a pipe has no buffer) far short of what it
// offered.
func TestUnreadRepliesStopTheSession(t *testing.T) {
	sch, err := schema.ParseSpec("temperature=numeric[-30,50]; humidity=numeric[0,100]")
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	srv := NewServer(brk, nil)
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()
	defer func() {
		srv.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()

	client, server := net.Pipe()
	ln.conns <- server
	hello, _ := EncodeLine(Request{Op: OpHello, Proto: int(ProtoV2)})
	if _, err := client.Write(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLine(bufio.NewReader(client)); err != nil {
		t.Fatal(err)
	}
	// From here on the client never reads.
	ping, err := appendRequest(nil, 1, Request{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	const offered = 50000
	var written atomic.Int64
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		for i := 0; i < offered; i++ {
			if _, err := client.Write(ping); err != nil {
				return
			}
			written.Add(1)
		}
	}()
	// Wait for the writes to stall: no progress for 200 ms.
	for last := int64(-1); ; {
		time.Sleep(200 * time.Millisecond)
		n := written.Load()
		if n == last || n == offered {
			break
		}
		last = n
	}
	// The backlog of replies, plus the requests the server's reader buffers
	// ahead, is a few thousand pings.
	if n := written.Load(); n >= 10000 {
		t.Errorf("the server read %d of %d pings whose replies nobody read", n, offered)
	}
	_ = client.Close()
	<-wrote
}
