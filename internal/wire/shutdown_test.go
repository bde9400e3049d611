package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/schema"
)

// TestCloseDuringNotificationFlood pins the shutdown contract: while
// notifications stream to subscribers and publishers keep the broker busy,
// Close must tear the server down without a panic, without interleaving a
// notification inside a response frame (every received frame decodes) and
// without leaking the Serve goroutine. Run under -race;
// the schedule noise is the point.
func TestCloseDuringNotificationFlood(t *testing.T) {
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()

	// The subscriber speaks raw TCP so the test sees exactly the bytes the
	// server wrote: a torn or interleaved frame would fail to decode.
	subConn, subRd := upgradeRaw(t, ln.Addr().String())
	defer func() { _ = subConn.Close() }()
	sub, err := appendRequest(nil, 1, Request{Op: OpSubscribe, ID: "all", Profile: "profile(temperature >= -30)"}, newSlots([]string{"temperature", "humidity"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subConn.Write(sub); err != nil {
		t.Fatal(err)
	}
	var frames atomic.Uint64
	readerDone := make(chan error, 1)
	go func() {
		var buf []byte
		in := &inbound{}
		for {
			typ, payload, err := ReadFrame(subRd, &buf)
			if err == nil {
				_, _, err = decodeResponseFrame(typ, payload, in)
			}
			if err != nil {
				readerDone <- err
				return
			}
			frames.Add(1)
		}
	}()

	// Publishers flood; their request/response pairing intentionally races
	// the notification forwarder on the subscriber connection, and then
	// races Close.
	const publishers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: time.Second})
			if err != nil {
				return
			}
			defer func() { _ = c.Close() }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Publish(map[string]float64{"temperature": 20, "humidity": 50}, time.Second); err != nil {
					return // the server is tearing down
				}
			}
		}()
	}

	// Let the flood build, then tear the server down mid-flight.
	deadline := time.Now().Add(2 * time.Second)
	for frames.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("flood never built up: %d frames", frames.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	close(stop)
	wg.Wait()

	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	select {
	case err := <-readerDone:
		// EOF/reset (or a frame cut short by the close) is the expected end; a
		// malformed frame means a torn or interleaved write.
		if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooBig) {
			t.Errorf("subscriber stream corrupted: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber reader never finished")
	}
	if frames.Load() < 100 {
		t.Errorf("only %d well-formed frames observed", frames.Load())
	}
}

// TestCloseWithoutContextCancel pins the deadlock fixed in this change: a
// bare Close (no context cancellation) must stop Serve. Before the fix the
// context watcher goroutine never exited, so Serve and Close deadlocked on
// the handler WaitGroup.
func TestCloseWithoutContextCancel(t *testing.T) {
	sch, err := schema.ParseSpec("x=numeric[0,1]")
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	srv := NewServer(brk, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()
	// Make sure the server is actually accepting before closing it.
	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(time.Second); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked without a context cancel")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}
	// Close is idempotent, and a closed server refuses to serve again.
	srv.Close()
	if err := srv.Serve(context.Background(), ln); err == nil {
		t.Error("Serve on a closed server must fail")
	}
}

// upgradeRaw dials a raw TCP connection and performs the hello exchange by
// hand, returning the connection positioned at the start of the binary
// stream.
func upgradeRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := EncodeLine(Request{Op: OpHello, Proto: int(ProtoV2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := ReadLine(rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(line)
	if err != nil || resp.Type != MsgOK || resp.Proto < int(ProtoV2) {
		t.Fatalf("hello refused: %+v %v", resp, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn, rd
}

// TestV2GarbageClosesConnection pins the v2 framing error policy: once the
// stream position is lost — garbage length prefixes, truncated frames,
// unknown frame types — the server closes that connection (the only safe
// move) without taking the daemon down, and a later Server.Close must not
// wedge on the aborted connections.
func TestV2GarbageClosesConnection(t *testing.T) {
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()
	addr := ln.Addr().String()

	// expectClosed waits for the server to drop the connection.
	expectClosed := func(t *testing.T, conn net.Conn, rd *bufio.Reader) {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		var buf []byte
		for {
			if _, _, err := ReadFrame(rd, &buf); err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, ErrFrameTruncated) {
					return // remote close observed
				}
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatal("server kept the connection open after garbage")
				}
				return // reset — also a close
			}
		}
	}

	t.Run("oversized length prefix", func(t *testing.T) {
		conn, rd := upgradeRaw(t, addr)
		defer func() { _ = conn.Close() }()
		if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02}); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn, rd)
	})

	t.Run("mid-stream garbage", func(t *testing.T) {
		conn, rd := upgradeRaw(t, addr)
		defer func() { _ = conn.Close() }()
		// A plausible small length with an unknown type byte and junk payload.
		if _, err := conn.Write([]byte{0, 0, 0, 5, 0x7F, 'j', 'u', 'n', 'k'}); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn, rd)
	})

	t.Run("truncated length prefix", func(t *testing.T) {
		conn, rd := upgradeRaw(t, addr)
		defer func() { _ = conn.Close() }()
		if _, err := conn.Write([]byte{0, 0}); err != nil {
			t.Fatal(err)
		}
		if cw, ok := conn.(*net.TCPConn); ok {
			_ = cw.CloseWrite()
		}
		expectClosed(t, conn, rd)
	})

	t.Run("zero length frame", func(t *testing.T) {
		conn, rd := upgradeRaw(t, addr)
		defer func() { _ = conn.Close() }()
		if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn, rd)
	})

	// The daemon survived every aborted connection: a healthy v2 client still
	// round-trips, and Close does not wedge on the corpses.
	c, err := DialWith(addr, DialConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(time.Second); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged after v2 garbage connections")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// TestAcceptDuringCloseRace hammers connection acceptance against Close: a
// connection accepted while Close runs must either be served or dropped,
// never leaked past the Close barrier (which would trip the WaitGroup
// add-after-wait race under -race).
func TestAcceptDuringCloseRace(t *testing.T) {
	sch, err := schema.ParseSpec("x=numeric[0,1]")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
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

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						return
					}
					_ = conn.Close()
				}
			}()
		}
		time.Sleep(time.Duration(i%5) * time.Millisecond)
		srv.Close()
		close(stop)
		wg.Wait()
		select {
		case <-serveDone:
		case <-time.After(5 * time.Second):
			t.Fatal("Serve did not return after racing Close")
		}
		brk.Close()
	}
}
