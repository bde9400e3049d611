package wire

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/schema"
)

// startServerProto is startServer with a protocol ceiling: ProtoV1 simulates
// an old daemon that never learned the binary protocol.
func startServerProto(t *testing.T, max Proto) string {
	t.Helper()
	sch, err := schema.ParseSpec("temperature=numeric[-30,50]; humidity=numeric[0,100]")
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(brk, nil)
	srv.SetMaxProto(max)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(ctx, ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		wg.Wait()
		brk.Close()
	})
	return ln.Addr().String()
}

// TestNegotiateV2EndToEnd upgrades a connection to binary frames and drives
// the full surface over it: control operations ride control frames, publishes
// travel as vectors, notifications come back as vectors, and the wire-level
// counters become visible in stats.
func TestNegotiateV2EndToEnd(t *testing.T) {
	addr := startServer(t)

	subC, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = subC.Close() }()
	if subC.Proto() != ProtoV2 {
		t.Fatalf("negotiated proto = %d, want v2", subC.Proto())
	}
	pubC, err := DialWith(addr, DialConfig{Timeout: rpcTimeout, Proto: ProtoV2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pubC.Close() }()

	// Control-plane operations cross the codec boundary intact.
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
	// The map-based publish also rides the vector frame on v2.
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
			if n.Profile != "hot" || len(n.Vals) != 2 {
				t.Fatalf("v2 notification = %+v", n)
			}
			// EventMap resolves the vector back through the negotiated slots.
			if m := subC.EventMap(n); m["temperature"] < 35 {
				t.Errorf("notification event = %v", m)
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
	// Two f64 slots plus framing: a v2 publish is a few dozen bytes, far
	// under the ~60-byte JSON rendering.
	if st.BytesPerEventWire > 40 {
		t.Errorf("BytesPerEventWire = %g, want compact binary frames", st.BytesPerEventWire)
	}
}

// TestNegotiateFallbackToV1 pins the downgrade path: an Auto client against a
// v1-pinned server lands on JSON lines with full functionality, and a client
// that requires v2 fails with a useful error instead of degrading silently.
func TestNegotiateFallbackToV1(t *testing.T) {
	addr := startServerProto(t, ProtoV1)

	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Proto() != ProtoV1 {
		t.Fatalf("proto after fallback = %d, want v1", c.Proto())
	}
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if matched, err := c.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout); err != nil || matched != 1 {
		t.Fatalf("publish after fallback = %d %v", matched, err)
	}
	// The positional surface degrades to v1 maps transparently.
	if matched, err := c.PublishVals([]float64{42, 10}, rpcTimeout); err != nil || matched != 1 {
		t.Fatalf("PublishVals over v1 = %d %v", matched, err)
	}
	select {
	case n := <-c.Notifications():
		if n.Profile != "hot" || n.Event["temperature"] != 41 {
			t.Fatalf("v1 notification = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notification after fallback")
	}

	// A pinned-v2 client must refuse the old server.
	if _, err := DialWith(addr, DialConfig{Timeout: rpcTimeout, Proto: ProtoV2}); err == nil {
		t.Fatal("ProtoV2 against a v1 server must fail")
	} else if !strings.Contains(err.Error(), "v2") {
		t.Errorf("v2-refusal error %q does not name the protocol", err)
	}
}

// TestV1ClientAgainstV2Server pins backward interop: a client pinned to the
// line protocol keeps working unchanged against an upgraded daemon.
func TestV1ClientAgainstV2Server(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout, Proto: ProtoV1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Proto() != ProtoV1 {
		t.Fatalf("pinned-v1 dial negotiated %d, want v1", c.Proto())
	}
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if matched, err := c.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout); err != nil || matched != 1 {
		t.Fatalf("v1 publish = %d %v", matched, err)
	}
}

// TestPipelinedBatch pushes a large batch through the pipelined v2 publish
// path: per-event counts must align positionally, and the server must observe
// pipelined frames (requests queued behind the one being served).
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
	// The window writes many chunked frames back to back over loopback, so
	// the server must have seen at least one frame queued behind another.
	if st.FramesPipelined == 0 {
		t.Error("FramesPipelined = 0 after a windowed batch")
	}
}

// TestV1BatchIsChunkedUnderTheRequestCap: a line-protocol batch that would
// encode past maxRequest as one request is not refused but split, sized by
// the line codec's per-event bound, into requests acknowledged one at a time
// (a v1 window is one deep), and the counts still align positionally.
func TestV1BatchIsChunkedUnderTheRequestCap(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout, Proto: ProtoV1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 0)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	// {"humidity":50.123456789,"temperature":-10.123456789} is 53 bytes.
	const n = 24000
	if n*53 <= maxRequest {
		t.Fatalf("%d events fit one request; the batch no longer needs chunking", n)
	}
	batch := make([][]float64, n)
	for i := range batch {
		batch[i] = []float64{10.123456789 * float64(1-2*(i%2)), 50.123456789}
	}
	before := c.nextCid
	counts, err := c.PublishValsBatch(batch, rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if sent := c.nextCid - before; sent < 2 {
		t.Errorf("batch went out as %d request(s), want several", sent)
	}
	if len(counts) != n {
		t.Fatalf("got %d counts for %d events", len(counts), n)
	}
	for i, cnt := range counts {
		if want := 1 - i%2; cnt != want {
			t.Fatalf("counts[%d] = %d, want %d", i, cnt, want)
		}
	}
}

// TestHelloAfterUpgrade pins the one v2-specific semantic error: a second
// client hello on an upgraded connection answers with an error frame and the
// connection survives.
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

// TestPublishBatchOfMaps pins what PublishBatch does with attribute maps on a
// frame connection: maps that cover the schema become vectors and take the
// chunked, pipelined path of PublishValsBatch (compact frames, several in
// flight); a batch with a partial map cannot, travels as JSON and — this
// server fills in no defaults — is refused without harming the connection.
func TestPublishBatchOfMaps(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout, PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("warm", "profile(temperature >= 0)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}

	const n = 2000
	evs := make([]map[string]float64, n)
	for i := range evs {
		temp := 10.0
		if i%2 == 1 {
			temp = -10
		}
		evs[i] = map[string]float64{"temperature": temp, "humidity": 50}
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
	if st.FramesPipelined == 0 {
		t.Error("FramesPipelined = 0: the map batch went out as one unpipelined request")
	}
	if st.BytesPerEventWire > 24 {
		t.Errorf("BytesPerEventWire = %g: the map batch did not travel as vectors", st.BytesPerEventWire)
	}

	evs[1] = map[string]float64{"temperature": 5}
	if _, err := c.PublishBatch(evs[:4], rpcTimeout); err == nil {
		t.Error("a batch with a partial event must fail on a server without defaults")
	}
	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatalf("connection died after the refused batch: %v", err)
	}
}
