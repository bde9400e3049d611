package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/schema"
)

// sessionOutcome is what one scripted request came to, in a form that is the
// same whichever codec carried it: failed or not, and the reply's meaning.
type sessionOutcome struct {
	step   string
	failed bool
	reply  string
}

// runSessionScript drives one fixed script through a fresh server over a
// connection pinned to proto, and returns every step's outcome, the
// notifications the connection received, and the goroutines left behind
// once everything is closed.
func runSessionScript(t *testing.T, proto Proto) (outcomes []sessionOutcome, notifs []string, leaked int) {
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

	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout, Proto: proto})
	if err != nil {
		t.Fatal(err)
	}
	if c.Proto() != proto {
		t.Fatalf("negotiated proto %d, want %d", c.Proto(), proto)
	}
	sl, err := c.slotTable(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// A bystander on a connection of its own, matching every scripted event:
	// neither connection may ever be notified of the other's ids.
	other, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout, Proto: proto})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Subscribe("bystander", "profile(temperature >= -30)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}

	script := []struct {
		step string
		req  Request
	}{
		{"ping", Request{Op: OpPing}},
		{"schema", Request{Op: OpSchema}},
		{"subscribe", Request{Op: OpSubscribe, ID: "hot", Profile: "profile(temperature >= 35)", Priority: 2}},
		{"publish map", Request{Op: OpPublish, Event: map[string]float64{"temperature": 41, "humidity": 10}}},
		{"publish vector", Request{Op: OpPublish, Vals: []float64{45, 20}}},
		{"publish vector miss", Request{Op: OpPublish, Vals: []float64{5, 20}}},
		{"batch", Request{Op: OpPublishBatch, Batch: [][]float64{{36, 1}, {0, 2}, {50, 3}}}},
		{"batch of maps", Request{Op: OpPublishBatch, Events: []map[string]float64{
			{"temperature": 37, "humidity": 4}, {"temperature": 1, "humidity": 5}}}},
		{"quench cold", Request{Op: OpQuench, Attr: "temperature", Lo: -30, Hi: 0}},
		{"quench hot", Request{Op: OpQuench, Attr: "temperature", Lo: 30, Hi: 50}},
		{"stats", Request{Op: OpStats}},
		{"profiles", Request{Op: OpProfiles}},
		{"unknown op", Request{Op: "frobnicate"}},
		{"bad arity", Request{Op: OpPublish, Vals: []float64{1}}},
		{"bad arity in batch", Request{Op: OpPublishBatch, Batch: [][]float64{{36, 1}, {2}}}},
		{"out of domain", Request{Op: OpPublish, Vals: []float64{400, 10}}},
		{"out of domain map", Request{Op: OpPublish, Event: map[string]float64{"temperature": 400, "humidity": 10}}},
		{"partial map", Request{Op: OpPublish, Event: map[string]float64{"temperature": 40}}},
		{"second hello", Request{Op: OpHello}},
		// Unsubscribe while queued: the burst's four notifications ("warm"
		// thrice, "hot" once) are in the connection's queue when "warm" leaves.
		// The queue is not purged: ids unsubscribed mid-burst are still delivered.
		{"subscribe warm", Request{Op: OpSubscribe, ID: "warm", Profile: "profile(temperature >= 20)"}},
		{"burst", Request{Op: OpPublishBatch, Batch: [][]float64{{30, 1}, {40, 2}, {25, 3}}}},
		{"unsubscribe warm", Request{Op: OpUnsubscribe, ID: "warm"}},
		{"unsubscribe", Request{Op: OpUnsubscribe, ID: "hot"}},
		{"unsubscribe again", Request{Op: OpUnsubscribe, ID: "hot"}},
		{"publish after unsubscribe", Request{Op: OpPublish, Vals: []float64{45, 20}}},
		{"still alive", Request{Op: OpPing}},
	}
	for _, st := range script {
		resp, err := c.roundTrip(st.req, rpcTimeout)
		out := sessionOutcome{step: st.step, failed: err != nil}
		if err == nil {
			if resp.Stats != nil {
				// The two wire-level counters measure the encoding itself.
				stats := *resp.Stats
				stats.BytesPerEventWire, stats.FramesPipelined = 0, 0
				resp.Stats = &stats
			}
			js, _ := json.Marshal(resp)
			out.reply = string(js)
		}
		outcomes = append(outcomes, out)
	}

	// Five scripted events matched "hot" before the burst, which owes four
	// more notifications; all nine were queued before their subscriptions
	// ended.
	for i := 0; i < 9; i++ {
		select {
		case n := <-c.Notifications():
			if n.Profile != "hot" && n.Profile != "warm" {
				t.Errorf("proto %d: notified of %q, which this connection never subscribed", proto, n.Profile)
			}
			js, _ := json.Marshal(namedResponse(sl, n))
			notifs = append(notifs, string(js))
		case <-time.After(2 * time.Second):
			t.Fatalf("proto %d: notification %d never arrived", proto, i)
		}
	}
	// The bystander saw each of the 12 accepted scripted events once, and only
	// under its own id.
	for i := 0; i < 12; i++ {
		select {
		case n := <-other.Notifications():
			if n.Profile != "bystander" {
				t.Errorf("proto %d: the bystander was notified of %q", proto, n.Profile)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("proto %d: bystander notification %d never arrived", proto, i)
		}
	}
	select {
	case n := <-c.Notifications():
		t.Errorf("proto %d: unexpected extra notification %+v", proto, n)
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
	return outcomes, notifs, runtime.NumGoroutine() - before
}

// TestSessionCrossCodec is the session-level twin of TestCrossCodecRequests/
// Responses: one script, run through the server's single session loop once
// per codec, must come to the same outcomes — every reply with the same
// meaning, every failure a failure, the same notifications in the same order
// — and leave no goroutine behind after Close.
func TestSessionCrossCodec(t *testing.T) {
	lineOut, lineNotifs, lineLeak := runSessionScript(t, ProtoV1)
	frameOut, frameNotifs, frameLeak := runSessionScript(t, ProtoV2)

	if lineLeak > 0 || frameLeak > 0 {
		t.Errorf("goroutines left after Close: %d on lines, %d on frames", lineLeak, frameLeak)
	}
	if len(lineOut) != len(frameOut) {
		t.Fatalf("%d outcomes on lines, %d on frames", len(lineOut), len(frameOut))
	}
	wantFailed := map[string]bool{
		"unknown op": true, "bad arity": true, "bad arity in batch": true, "out of domain": true,
		"out of domain map": true, "partial map": true, "second hello": true, "unsubscribe again": true,
	}
	for i, lo := range lineOut {
		fo := frameOut[i]
		if lo != fo {
			t.Errorf("step %q differs across codecs:\n lines:  failed=%v %s\n frames: failed=%v %s",
				lo.step, lo.failed, lo.reply, fo.failed, fo.reply)
		}
		if lo.failed != wantFailed[lo.step] {
			t.Errorf("step %q: failed = %v, want %v", lo.step, lo.failed, wantFailed[lo.step])
		}
	}
	if len(lineNotifs) != len(frameNotifs) {
		t.Fatalf("%d notifications on lines, %d on frames", len(lineNotifs), len(frameNotifs))
	}
	for i := range lineNotifs {
		if lineNotifs[i] != frameNotifs[i] {
			t.Errorf("notification %d differs across codecs:\n lines:  %s\n frames: %s", i, lineNotifs[i], frameNotifs[i])
		}
	}
}

// TestLateReplyIsNotHandedToTheNextRequest pins the line protocol's implicit
// correlation: a reply that arrives after its request timed out belongs to
// that request and is dropped, never handed to the request that follows. The
// scripted server holds the subscribe's reply back until the publish has
// arrived, then answers both in order.
func TestLateReplyIsNotHandedToTheNextRequest(t *testing.T) {
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
		for _, wantOp := range []Op{OpSubscribe, OpPublish} {
			line, err := ReadLine(rd)
			if err != nil {
				served <- err
				return
			}
			if req, err := DecodeRequest(line); err != nil || req.Op != wantOp {
				served <- errors.New("scripted server: unexpected request " + string(line))
				return
			}
		}
		_, err = conn.Write([]byte(`{"type":"ok","op":"subscribe","profile":"hot"}` + "\n" +
			`{"type":"ok","op":"publish","matched":7}` + "\n"))
		served <- err
	}()

	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout, Proto: ProtoV1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, 50*time.Millisecond); err == nil {
		t.Fatal("the subscribe was answered before the script allowed it")
	}
	matched, err := c.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if matched != 7 {
		t.Errorf("publish got matched=%d: the subscribe's late reply, not its own (want 7)", matched)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestLateReplyDoesNotReachAPooledWaiter is the same rule seen from the reply
// slots, which requests now share through a pool: a waiter that gave up never
// returns to the pool, so the reply that arrives late for it cannot surface in
// a later request that drew the same slot. The scripted v2 server answers a
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
		if _, err := conn.Write(v2Confirmation(false)); err != nil {
			served <- err
			return
		}
		in := NewInbound(rd)
		var cids []uint32
		for _, wantOp := range []Op{OpPing, OpSubscribe, OpPublish} {
			cid, req, err := frameCodec{}.readRequest(in)
			if err != nil || req.Op != wantOp {
				served <- fmt.Errorf("scripted server: got %q (%v), want %q", req.Op, err, wantOp)
				return
			}
			cids = append(cids, cid)
			if wantOp == OpPing {
				pong, _ := frameCodec{}.appendResponse(nil, cid, Response{Type: MsgPong, Op: OpPing}, nil)
				if _, err := conn.Write(pong); err != nil {
					served <- err
					return
				}
			}
		}
		late, _ := frameCodec{}.appendResponse(nil, cids[1], Response{Type: MsgOK, Op: OpSubscribe, Profile: "hot"}, nil)
		_, err = conn.Write(appendOKFrame(late, cids[2], 7))
		served <- err
	}()

	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout, Proto: ProtoV2})
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
		if conn, err := ln.Accept(); err == nil {
			_ = conn.Close()
		}
	}()
	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout, Proto: ProtoV1})
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

	// call writes one request line and reads one reply line.
	call := func(conn net.Conn, rd *bufio.Reader, req Request) Response {
		t.Helper()
		line, err := EncodeLine(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(rpcTimeout))
		if _, err := conn.Write(line); err != nil {
			t.Fatal(err)
		}
		reply, err := ReadLine(rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(bytes.Clone(reply))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	stuck := ln.dial()
	defer func() { _ = stuck.Close() }()
	if resp := call(stuck, bufio.NewReader(stuck), Request{Op: OpSubscribe, ID: "all", Profile: "profile(temperature >= -30)"}); resp.Type != MsgOK {
		t.Fatalf("subscribe = %+v", resp)
	}
	// From here on the subscriber never reads again.

	mute := ln.dial()
	defer func() { _ = mute.Close() }()
	if resp := call(mute, bufio.NewReader(mute), Request{Op: OpSubscribe, ID: "quiet", Profile: "profile(temperature >= 45)"}); resp.Type != MsgOK {
		t.Fatalf("subscribe = %+v", resp)
	}
	ping, err := EncodeLine(Request{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mute.Write(ping); err != nil { // the pong is never read
		t.Fatal(err)
	}

	healthy := ln.dial()
	defer func() { _ = healthy.Close() }()
	hrd := bufio.NewReader(healthy)
	if resp := call(healthy, hrd, Request{Op: OpPublish, Event: map[string]float64{"temperature": 20, "humidity": 50}}); resp.Matched != 1 {
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
