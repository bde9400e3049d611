package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/schema"
)

var update = flag.Bool("update", false, "rewrite testdata/session.golden from the session script")

// sessionStep is one step of the session script: a request, or an event map
// (ev, or evs for a batch) that the client completes into req's vectors.
type sessionStep struct {
	step string
	req  Request
	ev   map[string]float64
	evs  []map[string]float64
}

// sessionScript is the script TestSessionScript runs and FuzzSession starts
// from.
var sessionScript = []sessionStep{
	{step: "ping", req: Request{Op: OpPing}},
	{step: "schema", req: Request{Op: OpSchema}},
	{step: "subscribe", req: Request{Op: OpSubscribe, ID: "hot", Profile: "profile(temperature >= 35)", Priority: 2}},
	{step: "publish map", req: Request{Op: OpPublish}, ev: map[string]float64{"temperature": 41, "humidity": 10}},
	{step: "publish vector", req: Request{Op: OpPublish, Vals: []float64{45, 20}}},
	{step: "publish vector miss", req: Request{Op: OpPublish, Vals: []float64{5, 20}}},
	{step: "batch", req: Request{Op: OpPublishBatch, Batch: [][]float64{{36, 1}, {0, 2}, {50, 3}}}},
	{step: "batch of maps", req: Request{Op: OpPublishBatch}, evs: []map[string]float64{
		{"temperature": 37, "humidity": 4}, {"temperature": 1, "humidity": 5}}},
	{step: "quench cold", req: Request{Op: OpQuench, Attr: "temperature", Lo: -30, Hi: 0}},
	{step: "quench hot", req: Request{Op: OpQuench, Attr: "temperature", Lo: 30, Hi: 50}},
	{step: "stats", req: Request{Op: OpStats}},
	{step: "profiles", req: Request{Op: OpProfiles}},
	{step: "unknown op", req: Request{Op: "frobnicate"}},
	{step: "bad arity", req: Request{Op: OpPublish, Vals: []float64{1}}},
	{step: "bad arity in batch", req: Request{Op: OpPublishBatch, Batch: [][]float64{{36, 1}, {2}}}},
	{step: "out of domain", req: Request{Op: OpPublish, Vals: []float64{400, 10}}},
	{step: "out of domain map", req: Request{Op: OpPublish}, ev: map[string]float64{"temperature": 400, "humidity": 10}},
	// Fails in the client: the server announced no default for humidity.
	{step: "partial map", req: Request{Op: OpPublish}, ev: map[string]float64{"temperature": 40}},
	{step: "second hello", req: Request{Op: OpHello}},
	// Unsubscribe while queued: the burst's four notifications ("warm"
	// thrice, "hot" once) are in the connection's queue when "warm" leaves.
	// The queue is not purged: ids unsubscribed mid-burst are still delivered.
	{step: "subscribe warm", req: Request{Op: OpSubscribe, ID: "warm", Profile: "profile(temperature >= 20)"}},
	{step: "burst", req: Request{Op: OpPublishBatch, Batch: [][]float64{{30, 1}, {40, 2}, {25, 3}}}},
	{step: "unsubscribe warm", req: Request{Op: OpUnsubscribe, ID: "warm"}},
	{step: "unsubscribe", req: Request{Op: OpUnsubscribe, ID: "hot"}},
	{step: "unsubscribe again", req: Request{Op: OpUnsubscribe, ID: "hot"}},
	{step: "publish after unsubscribe", req: Request{Op: OpPublish, Vals: []float64{45, 20}}},
	{step: "still alive", req: Request{Op: OpPing}},
}

// request completes a step's maps against sch and d, as Client.Publish and
// Client.PublishBatch do.
func (st sessionStep) request(sch *schema.Schema, d *event.Defaults) (req Request, err error) {
	req = st.req
	complete := func(m map[string]float64) ([]float64, error) {
		vals := make([]float64, sch.N())
		return vals, event.Complete(sch, vals, m, d)
	}
	switch {
	case st.ev != nil:
		req.Vals, err = complete(st.ev)
	case st.evs != nil:
		req.Batch = make([][]float64, len(st.evs))
		for i, m := range st.evs {
			if req.Batch[i], err = complete(m); err != nil {
				break
			}
		}
	}
	return req, err
}

// runSessionScript drives one fixed script through a fresh server and returns
// a transcript — one line per step, the reply's JSON meaning or "error", then
// one line per notification the connection received — and the goroutines left
// behind once everything is closed.
func runSessionScript(t *testing.T) (transcript string, leaked int) {
	t.Helper()
	before := runtime.NumGoroutine()

	sch, err := schema.ParseSpec("temperature=numeric[-30,50]; humidity=numeric[0,100]")
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(brk, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()

	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	// A bystander on a connection of its own, matching every scripted event:
	// neither connection may ever be notified of the other's ids.
	other, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Subscribe("bystander", "profile(temperature >= -30)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, st := range sessionScript {
		req, err := st.request(c.sch, c.defaults)
		var resp Response
		if err == nil {
			resp, err = c.roundTrip(req, rpcTimeout)
		}
		if err != nil {
			fmt.Fprintf(&b, "%s\terror\n", st.step)
			continue
		}
		if resp.Stats != nil {
			// The two wire-level counters measure the encoding itself.
			stats := *resp.Stats
			stats.BytesPerEventWire, stats.FramesPipelined = 0, 0
			resp.Stats = &stats
		}
		js, _ := json.Marshal(resp)
		fmt.Fprintf(&b, "%s\t%s\n", st.step, js)
	}

	// Five scripted events matched "hot" before the burst, which owes four
	// more notifications; all nine were queued before their subscriptions
	// ended.
	for i := 0; i < 9; i++ {
		select {
		case n := <-c.Notifications():
			if n.Profile != "hot" && n.Profile != "warm" {
				t.Errorf("notified of %q, which this connection never subscribed", n.Profile)
			}
			js, _ := json.Marshal(namedResp{Type: MsgNotification, Profile: n.Profile, Event: n.Event, Response: Response{Seq: n.Seq}})
			fmt.Fprintf(&b, "notification\t%s\n", js)
		case <-time.After(2 * time.Second):
			t.Fatalf("notification %d never arrived", i)
		}
	}
	// The bystander saw each of the 12 accepted scripted events once, and only
	// under its own id.
	for i := 0; i < 12; i++ {
		select {
		case n := <-other.Notifications():
			if n.Profile != "bystander" {
				t.Errorf("the bystander was notified of %q", n.Profile)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("bystander notification %d never arrived", i)
		}
	}
	select {
	case n := <-c.Notifications():
		t.Errorf("unexpected extra notification %+v", n)
	case <-time.After(50 * time.Millisecond):
	}

	_ = c.Close()
	_ = other.Close()
	srv.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v", err)
	}
	brk.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return b.String(), runtime.NumGoroutine() - before
}

// TestSessionScript runs one script through the server's session loop and
// must come to the transcript in testdata/session.golden — every reply with
// the same meaning, every failure a failure, the same notifications in the
// same order — and leave no goroutine behind after Close. The golden was
// recorded from the retired v1 line protocol, so it is the reference for what
// each request means; -update rewrites it.
func TestSessionScript(t *testing.T) {
	got, leaked := runSessionScript(t)
	if leaked > 0 {
		t.Errorf("%d goroutines left after Close", leaked)
	}
	const golden = "testdata/session.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d differs from %s:\n got:  %s\n want: %s", i+1, golden, g, w)
		}
	}
}

// TestLateReplyDoesNotReachAPooledWaiter: a reply that arrives after its
// request timed out belongs to that request and is dropped, never handed to
// the request that follows. Requests share reply slots through a pool, and a
// waiter that gave up never returns to it, so the late reply cannot surface in
// a later request that drew the same slot. The scripted server answers a
// ping at once (its waiter goes back to the pool), holds the subscribe's reply
// back until the publish has arrived, then answers both.
func TestLateReplyDoesNotReachAPooledWaiter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer func() { _ = conn.Close() }()
		rd := bufio.NewReader(conn)
		if _, err := ReadLine(rd); err != nil { // the hello
			served <- err
			return
		}
		if _, err := conn.Write(v2Confirmation()); err != nil {
			served <- err
			return
		}
		in := &inbound{rd: rd}
		var cids []uint32
		for _, wantOp := range []Op{OpPing, OpSubscribe, OpPublish} {
			cid, req, err := readRequest(in)
			if err != nil || req.Op != wantOp {
				served <- fmt.Errorf("scripted server: got %q (%v), want %q", req.Op, err, wantOp)
				return
			}
			cids = append(cids, cid)
			if wantOp == OpPing {
				pong, _ := appendResponse(nil, cid, Response{Type: MsgPong, Op: OpPing})
				if _, err := conn.Write(pong); err != nil {
					served <- err
					return
				}
			}
		}
		late, _ := appendResponse(nil, cids[1], Response{Type: MsgOK, Op: OpSubscribe, Profile: "hot"})
		_, err = conn.Write(appendOKFrame(late, cids[2], 7))
		served <- err
	}()

	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, 50*time.Millisecond); err == nil {
		t.Fatal("the subscribe was answered before the script allowed it")
	}
	resp, err := c.roundTrip(Request{Op: OpPublish, Vals: []float64{41, 10}}, rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Op != OpPublish || resp.Matched != 7 {
		t.Errorf("publish got %+v: the subscribe's late reply, not its own (want matched 7)", resp)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	// Every waiter the pool hands out from here on is empty.
	for i := 0; i < 64; i++ {
		w := waiters.Get().(*waiter)
		select {
		case stale := <-w.ch:
			t.Fatalf("a pooled waiter holds %+v", stale)
		default:
		}
	}
}

// TestRequestAfterConnectionLoss: a request posted after the reader has seen
// the connection drop has nobody left to fail its waiter, so await must
// notice the closed connection itself and not sit out the timeout.
func TestRequestAfterConnectionLoss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		// Answer the hello, then hang up.
		if conn, err := ln.Accept(); err == nil {
			if _, err := ReadLine(bufio.NewReader(conn)); err == nil {
				_, _ = conn.Write(v2Confirmation())
			}
			_ = conn.Close()
		}
	}()
	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	<-c.done
	// The peer closed cleanly, so this first write still succeeds locally.
	start := time.Now()
	if err := c.Ping(rpcTimeout); err == nil {
		t.Fatal("ping on a dropped connection succeeded")
	} else if waited := time.Since(start); waited >= rpcTimeout {
		t.Errorf("ping failed only after %v (%v): it waited out the timeout", waited, err)
	}
}

// TestUntimedRequestAfterATimedOne: a request without a timeout sets no write
// deadline, so it must not inherit the one a timed request set before it,
// long expired by then.
func TestUntimedRequestAfterATimedOne(t *testing.T) {
	c, err := DialWith(startServer(t), DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := c.Ping(0); err != nil {
		t.Errorf("an untimed ping after a timed one: %v", err)
	}
}

// pipeListener hands a server the server halves of net.Pipe connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial connects a new pipe to the server. The server's half turns whatever
// write deadline the server sets into one 50 ms away, so the test observes
// the server's policy without waiting out its real timeout; a server that
// sets no deadline keeps none.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- hastyConn{server}
	return client
}

type hastyConn struct{ net.Conn }

func (c hastyConn) SetWriteDeadline(time.Time) error {
	return c.Conn.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
}

// TestNeverReadingSubscriber: a subscriber that stops reading must not park
// its connection forever. A pipe has no buffer, so the first notification
// blocks the server's write; the write deadline expires, the connection
// closes and its subscription is torn down — while a second connection keeps
// working and Server.Close returns. The same deadline bounds a reply: a
// client that sends a request and never reads the answer is cut off too.
func TestNeverReadingSubscriber(t *testing.T) {
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

	// open connects a pipe and exchanges the hellos.
	open := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		conn := ln.dial()
		t.Cleanup(func() { _ = conn.Close() })
		hello, _ := EncodeLine(Request{Op: OpHello, Proto: int(ProtoV2)})
		_ = conn.SetDeadline(time.Now().Add(rpcTimeout))
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		rd := bufio.NewReader(conn)
		if _, err := ReadLine(rd); err != nil {
			t.Fatal(err)
		}
		return conn, rd
	}
	// call writes one request frame and reads one reply frame.
	call := func(conn net.Conn, rd *bufio.Reader, req Request) Response {
		t.Helper()
		b, err := appendRequest(nil, 1, req)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(rpcTimeout))
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		typ, payload, err := ReadFrame(rd, &buf)
		if err != nil {
			t.Fatal(err)
		}
		_, resp, err := decodeResponseFrame(typ, payload, &inbound{})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	stuck, srd := open()
	if resp := call(stuck, srd, Request{Op: OpSubscribe, ID: "all", Profile: "profile(temperature >= -30)"}); resp.Type != MsgOK {
		t.Fatalf("subscribe = %+v", resp)
	}
	// From here on the subscriber never reads again.

	mute, mrd := open()
	if resp := call(mute, mrd, Request{Op: OpSubscribe, ID: "quiet", Profile: "profile(temperature >= 45)"}); resp.Type != MsgOK {
		t.Fatalf("subscribe = %+v", resp)
	}
	ping, err := appendRequest(nil, 2, Request{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mute.Write(ping); err != nil { // the pong is never read
		t.Fatal(err)
	}

	healthy, hrd := open()
	if resp := call(healthy, hrd, Request{Op: OpPublish, Vals: []float64{20, 50}}); resp.Matched != 1 {
		t.Fatalf("publish = %+v", resp)
	}

	deadline := time.Now().Add(3 * time.Second)
	for brk.Stats().Subscriptions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("a never-reading connection was not torn down: its subscription is still registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := call(healthy, hrd, Request{Op: OpPing}); resp.Type != MsgPong {
		t.Fatalf("second connection after the teardown: %+v", resp)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return")
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}
