package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"genas/internal/event"
)

// TestNegotiateV2EndToEnd dials a server and drives the full surface over
// frames: control operations ride control frames, publishes travel as
// vectors, notifications come back as vectors, and the wire-level counters
// become visible in stats.
func TestNegotiateV2EndToEnd(t *testing.T) {
	addr := startServer(t)

	subC, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = subC.Close() }()
	pubC, err := DialWith(addr, DialConfig{Timeout: rpcTimeout, Proto: ProtoV2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pubC.Close() }()

	// Control-plane operations cross the frame boundary intact.
	if err := subC.Ping(rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := subC.Subscribe("hot", "profile(temperature >= 35)", 1.5, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	attrs, err := subC.Schema(rpcTimeout)
	if err != nil || len(attrs) != 2 || attrs[0].Name != "temperature" {
		t.Fatalf("schema over v2 = %+v %v", attrs, err)
	}

	// The binary hot path: schema-order vector in, match count out.
	matched, err := pubC.PublishVals([]float64{41, 10}, rpcTimeout)
	if err != nil || matched != 1 {
		t.Fatalf("PublishVals = %d %v", matched, err)
	}
	// The map-based publish also rides the vector frame.
	matched, err = pubC.Publish(map[string]float64{"temperature": 45, "humidity": 20}, rpcTimeout)
	if err != nil || matched != 1 {
		t.Fatalf("Publish = %d %v", matched, err)
	}

	for i := 0; i < 2; i++ {
		select {
		case n, ok := <-subC.Notifications():
			if !ok {
				t.Fatal("notification channel closed")
			}
			// The reader resolves the vector back through the hello's slots.
			if n.Profile != "hot" || len(n.Event) != 2 || n.Event["temperature"] < 35 {
				t.Fatalf("v2 notification = %+v", n)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no notification over v2")
		}
	}

	// Semantic errors answer as error frames and leave the connection alive.
	if _, err := pubC.PublishVals([]float64{400, 10}, rpcTimeout); err == nil {
		t.Error("out-of-domain vector must fail")
	}
	if _, err := pubC.PublishVals([]float64{1}, rpcTimeout); err == nil {
		t.Error("wrong-arity vector must fail")
	}
	if err := pubC.Ping(rpcTimeout); err != nil {
		t.Fatalf("connection died after semantic errors: %v", err)
	}

	st, err := pubC.Stats(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesPerEventWire <= 0 {
		t.Errorf("BytesPerEventWire = %g, want > 0", st.BytesPerEventWire)
	}
	// Two f64 slots plus framing: a publish is a few dozen bytes, far under
	// the ~60-byte JSON rendering.
	if st.BytesPerEventWire > 40 {
		t.Errorf("BytesPerEventWire = %g, want compact binary frames", st.BytesPerEventWire)
	}
}

// TestPreV2SpeakersAreRefused: a first line that is not a hello advertising
// protocol v2 — a v1 client's request, a hello without proto, a v1-era
// daemon's peer hello — is answered with one JSON error line naming protocol
// v2, and then the connection closes.
func TestPreV2SpeakersAreRefused(t *testing.T) {
	addr := startServer(t)
	for _, tc := range []struct{ name, first string }{
		{"v1 request", `{"op":"ping"}`},
		{"client hello without proto", `{"op":"hello"}`},
		{"peer hello without proto", `{"op":"hello","node":"A","schema":"schema(temperature:[-30,50])"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			if _, err := conn.Write([]byte(tc.first + "\n")); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(rpcTimeout))
			rd := bufio.NewReader(conn)
			line, err := ReadLine(rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := DecodeResponse(line)
			if err != nil || resp.Type != MsgError || !strings.Contains(resp.Error, "v2") {
				t.Fatalf("answer %q = %+v, %v; want an error naming protocol v2", line, resp, err)
			}
			if rest, err := io.ReadAll(rd); err != nil || len(rest) != 0 {
				t.Errorf("after the error line: %q, %v; want EOF", rest, err)
			}
		})
	}
}

// TestSilentConnectionIsDropped: a connection that never sends its hello is
// closed once the hello deadline passes, and takes its goroutine with it.
func TestSilentConnectionIsDropped(t *testing.T) {
	// Registered before the server's cleanup, so it runs once the server is
	// closed and no handler reads the variable any more.
	saved := helloTimeout
	t.Cleanup(func() { helloTimeout = saved })
	helloTimeout = 100 * time.Millisecond
	// The server runs two goroutines of its own: Serve and its context
	// watcher.
	before := runtime.NumGoroutine() + 2
	addr := startServer(t)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(rpcTimeout))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a silent connection = %d, %v; want the server to close it", n, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines left behind by the silent connection", n-before)
	}
}

// holdAcks is a scripted server that answers each request at once, except
// the publish_batch frames from..from+n-1 (counted from 0 on the
// connection), whose acknowledgements wait until all n have arrived and
// release (unless nil) is closed. Batch frame k is acknowledged with k+1
// matches per event, any other request with a pong.
func holdAcks(t *testing.T, from, n int, release <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		in := &inbound{rd: bufio.NewReader(conn)}
		if _, err := ReadLine(in.rd); err != nil {
			return
		}
		if _, err := conn.Write(v2Confirmation()); err != nil {
			return
		}
		var held []byte
		for k := 0; ; {
			cid, req, err := readRequest(in)
			if err != nil {
				return
			}
			var ack []byte
			if req.Op == OpPublishBatch {
				counts := make([]int, len(req.Batch))
				for i := range counts {
					counts[i] = k + 1
				}
				ack = appendOKBatchFrame(nil, cid, counts)
				if k++; k > from && k <= from+n {
					if held = append(held, ack...); k < from+n {
						continue
					}
					if release != nil {
						<-release
					}
					ack = held
				}
			} else {
				ack, _ = appendResponse(nil, cid, Response{Type: MsgPong, Op: req.Op})
			}
			if _, err := conn.Write(ack); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// requirePipelined publishes through a client of a server that answers no
// request until two have arrived: the batch completes only if the client
// posts a second request before it reads the first acknowledgement, which is
// where pipelining is decided.
func requirePipelined(t *testing.T, publish func(*Client) ([]int, error)) {
	t.Helper()
	c, err := DialWith(holdAcks(t, 0, 2, nil), DialConfig{Timeout: rpcTimeout, PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := publish(c); err != nil {
		t.Fatalf("against a server that answers once two requests are in: %v (the batch was not pipelined)", err)
	}
}

// TestPipelinedBatch pushes a large batch through the pipelined publish path:
// per-event counts must align positionally, and the client must have more
// than one request in flight.
func TestPipelinedBatch(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout, PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 0)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}

	const n = 2000
	batch := make([][]float64, n)
	for i := range batch {
		// Alternate matching (t=10) and non-matching (t=-10) events.
		temp := 10.0
		if i%2 == 1 {
			temp = -10
		}
		batch[i] = []float64{temp, 50}
	}
	counts, err := c.PublishValsBatch(batch, rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != n {
		t.Fatalf("got %d counts for %d events", len(counts), n)
	}
	for i, cnt := range counts {
		want := 1 - i%2
		if cnt != want {
			t.Fatalf("counts[%d] = %d, want %d", i, cnt, want)
		}
	}

	st, err := c.Stats(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != n {
		t.Errorf("published = %d, want %d", st.Published, n)
	}
	requirePipelined(t, func(c *Client) ([]int, error) { return c.PublishValsBatch(batch, rpcTimeout) })
}

// TestFramesPipelinedCounter pins the server's pipelining counter once,
// deterministically: of two request frames that arrive in one write, the
// first finds the second already buffered behind it, also where the first
// is longer than the server's 4 KiB reader.
func TestFramesPipelinedCounter(t *testing.T) {
	long := make([][]float64, 750) // 1 500 values, some 12 KB
	for i := range long {
		long[i] = []float64{41, 10}
	}
	for _, tc := range []struct {
		name  string
		first []byte
		reply byte
	}{
		{"two short frames", appendPublishFrame(nil, 1, []float64{41, 10}), frameOK},
		{"a long frame, then a short one", appendPublishBatchFrame(nil, 1, long), frameOKBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, rd := upgradeRaw(t, startServer(t))
			defer func() { _ = conn.Close() }()
			if _, err := conn.Write(appendPublishFrame(tc.first, 2, []float64{5, 10})); err != nil {
				t.Fatal(err)
			}
			var buf []byte
			for i, want := range []byte{tc.reply, frameOK} {
				if typ, _, err := ReadFrame(rd, &buf); err != nil || typ != want {
					t.Fatalf("acknowledgement %d: type 0x%02x, %v", i, typ, err)
				}
			}
			if _, err := conn.Write(appendControlFrame(nil, frameControl, 3, []byte(`{"op":"stats"}`))); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := ReadFrame(rd, &buf)
			if err != nil {
				t.Fatal(err)
			}
			_, resp, err := decodeResponseFrame(typ, payload, &inbound{})
			if err != nil || resp.Stats == nil {
				t.Fatalf("stats = %+v, %v", resp, err)
			}
			if resp.Stats.FramesPipelined != 1 {
				t.Errorf("FramesPipelined = %d after two frames in one write, want 1", resp.Stats.FramesPipelined)
			}
		})
	}
}

// TestHelloAfterUpgrade: a second client hello, in a control frame, answers
// with an error frame and the connection survives.
func TestHelloAfterUpgrade(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.roundTrip(Request{Op: OpHello, Proto: int(ProtoV2)}, rpcTimeout); err == nil {
		t.Error("hello on an upgraded connection must fail")
	}
	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatalf("connection died after re-hello: %v", err)
	}
}

// TestPublishBatchOfMaps pins what PublishBatch does with attribute maps:
// the client fills what a map omits from the defaults the hello announced,
// and the batch travels as vectors on the chunked, pipelined path of
// PublishValsBatch (compact frames, several in flight). A map that omits an
// attribute without a default fails in the client: nothing is published and
// the connection lives on.
func TestPublishBatchOfMaps(t *testing.T) {
	addr := startServerWith(t, map[string]float64{"humidity": 50})
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout, PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("warm", "profile(temperature >= 0; humidity >= 50)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}

	const n = 2000
	evs := make([]map[string]float64, n)
	for i := range evs {
		temp := 10.0
		if i%2 == 1 {
			temp = -10
		}
		evs[i] = map[string]float64{"temperature": temp}
	}
	counts, err := c.PublishBatch(evs, rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != n {
		t.Fatalf("got %d counts for %d events", len(counts), n)
	}
	for i, cnt := range counts {
		if want := 1 - i%2; cnt != want {
			t.Fatalf("counts[%d] = %d, want %d: the humidity default was not filled in", i, cnt, want)
		}
	}
	st, err := c.Stats(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != n {
		t.Errorf("published = %d, want %d", st.Published, n)
	}
	if st.BytesPerEventWire > 24 {
		t.Errorf("BytesPerEventWire = %g: the map batch did not travel as vectors", st.BytesPerEventWire)
	}
	requirePipelined(t, func(c *Client) ([]int, error) { return c.PublishBatch(evs, rpcTimeout) })

	evs[1] = map[string]float64{"humidity": 5}
	if _, err := c.PublishBatch(evs[:4], rpcTimeout); !errors.Is(err, event.ErrArity) || !strings.Contains(err.Error(), "event 1") {
		t.Errorf("a batch omitting temperature = %v, want event.ErrArity naming event 1", err)
	}
	if st, err := c.Stats(rpcTimeout); err != nil || st.Published != n {
		t.Errorf("after the refused batch: published %+v, %v; want %d", st, err, n)
	}
}
