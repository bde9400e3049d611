package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/schema"
)

// TestTimedOutWriteLeavesWholeFrames: a request that times out behind a
// stalled writer was never sent, so it tears no frame. A stub answers the
// hello, stalls for 700 ms, then reads frames until a ping arrives. The
// client's batch of 32 frames of 29 000 four-attribute events (about 1 MB
// each) times out at 100 ms; the ping after it must still reach the stub as a
// frame of its own, behind whole frames only, and be answered.
func TestTimedOutWriteLeavesWholeFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	confirm, _ := EncodeLine(Response{Type: MsgOK, Op: OpHello, Proto: int(ProtoV2),
		Attributes: []AttrPayload{{Name: "a", Kind: "numeric", Hi: 10}, {Name: "b", Kind: "numeric", Hi: 10},
			{Name: "c", Kind: "numeric", Hi: 10}, {Name: "d", Kind: "numeric", Hi: 10}}})
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer func() { _ = conn.Close() }()
		rd := bufio.NewReader(conn)
		if _, err := ReadLine(rd); err != nil {
			served <- err
			return
		}
		if _, err := conn.Write(confirm); err != nil {
			served <- err
			return
		}
		time.Sleep(700 * time.Millisecond)
		_ = conn.SetReadDeadline(time.Now().Add(rpcTimeout))
		in := &inbound{rd: rd}
		for frames := 0; ; frames++ {
			cid, req, err := readRequest(in)
			if err != nil {
				served <- fmt.Errorf("after %d whole frames the stub read: %v", frames, err)
				return
			}
			if req.Op == OpPing {
				pong, _ := appendResponse(nil, cid, Response{Type: MsgPong, Op: OpPing})
				_, err = conn.Write(pong)
				served <- err
				_, _ = io.Copy(io.Discard, rd) // until the client leaves
				return
			}
		}
	}()

	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ev := []float64{1, 2, 3, 4}
	batch := make([][]float64, 32*29000)
	for i := range batch {
		batch[i] = ev
	}
	if _, err := c.PublishValsBatch(batch, 100*time.Millisecond); err == nil {
		t.Fatal("the batch was acknowledged by a stub that acknowledges nothing")
	} else {
		t.Logf("batch: %v", err)
	}
	if err := c.Ping(3 * time.Second); err != nil {
		t.Errorf("ping after the timed-out batch: %v", err)
	}
	if err := <-served; err != nil {
		t.Error(err)
	}
}

// clientFuzzSchema is the schema FuzzClientReader's client learns.
var clientFuzzSchema = numericSchema("temperature", "humidity")

// FuzzClientReader feeds fuzzed response streams to a Client's reader over a
// pipe, behind four pending pings (cids 1–4). Whatever the bytes, the reader
// must match a reference decode of the same stream:
//   - each notification frame yields one Notification per id, in frame order,
//     all sharing one map, which equals the frame's vector by name and is no
//     other event's (a frame with the last one's Seq and vector continues
//     its event, as a daemon's writer may split an event's ids);
//   - a reply reaches only its own cid's waiter, and only the first one does;
//   - at a framing error or the end of the stream Notifications closes and
//     the waiters still pending fail;
//   - once the client is closed no goroutine is left.
func FuzzClientReader(f *testing.F) {
	notify := appendNotifyGroupFrame(nil, 7, []float64{41, 10}, []string{"hot", "dry"})
	pong, _ := appendResponse(nil, 4, Response{Type: MsgPong, Op: OpPing})
	stats, _ := appendResponse(nil, 2, Response{Type: MsgStats, Op: OpStats, Stats: &StatsPayload{Published: 3}})
	seeds := [][]byte{
		notify,
		appendOKFrame(nil, 1, 3),
		appendOKBatchFrame(nil, 2, []int{1, 0, 2}),
		appendErrFrame(nil, 3, OpSubscribe, "bad profile"),
		pong,
		stats,
		// One event split over two frames, a reply between them.
		slices.Concat(notify, pong, appendNotifyGroupFrame(nil, 7, []float64{41, 10}, []string{"wet"})),
		// A session: notifications around the replies, a second reply to one
		// cid, a reply to a cid never posted, a NaN in a vector.
		slices.Concat(notify, appendOKFrame(nil, 1, 3), appendNotifyGroupFrame(nil, 8, []float64{math.NaN(), 0}, []string{"hot"}),
			appendOKFrame(nil, 1, 9), appendOKFrame(nil, 17, 1), pong, notify),
		// Framing errors after a good frame: a vector of the wrong arity, a
		// notification without ids, a cut frame, an unknown type.
		slices.Concat(notify, appendNotifyGroupFrame(nil, 9, []float64{41}, []string{"hot"}), pong),
		slices.Concat(pong, appendNotifyGroupFrame(nil, 9, []float64{41, 10}, nil)),
		slices.Concat(appendOKFrame(nil, 1, 3), notify[:len(notify)-2]),
		slices.Concat(notify, []byte{0, 0, 0, 5, 0x7f, 0, 0, 0, 1}, pong),
		{},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		// The reference: the frames a reader of the stream decodes before its
		// first error, a notification of the wrong arity being one.
		type frame struct {
			cid  uint32
			resp Response
		}
		var want []frame
		ref := &inbound{rd: bufio.NewReader(bytes.NewReader(stream))}
		for {
			cid, resp, err := readResponse(ref)
			if err == nil && resp.Type == MsgNotification {
				_, err = mapOf(clientFuzzSchema, resp.Vals)
				resp.Vals, resp.IDs = slices.Clone(resp.Vals), slices.Clone(resp.IDs)
			}
			if err != nil {
				break
			}
			want = append(want, frame{cid, resp})
		}

		before := runtime.NumGoroutine()
		ours, theirs := net.Pipe()
		c := newClient(ours, bufio.NewReader(ours), clientFuzzSchema, nil, 1)
		drained := make(chan struct{})
		go func() {
			_, _ = io.Copy(io.Discard, theirs) // the pings
			close(drained)
		}()
		var waiting [4]*waiter
		for i := range waiting {
			cid, w, err := c.post(Request{Op: OpPing}, 0)
			if err != nil || cid != uint32(i+1) {
				t.Fatalf("ping %d posted as cid %d: %v", i+1, cid, err)
			}
			waiting[i] = w
		}
		var got []Notification
		collected := make(chan struct{})
		go func() {
			for n := range c.Notifications() {
				got = append(got, n)
			}
			close(collected)
		}()
		_, _ = theirs.Write(stream) // fails once the reader gave up
		_ = theirs.Close()
		select {
		case <-collected:
		case <-time.After(rpcTimeout):
			t.Fatal("Notifications did not close after the stream ended")
		}

		for i, w := range waiting {
			cid := uint32(i + 1)
			resp, err := c.await(cid, w, rpcTimeout)
			j := slices.IndexFunc(want, func(f frame) bool { return f.cid == cid && f.resp.Type != MsgNotification })
			switch {
			case j < 0 && !errors.Is(err, errConnClosed):
				t.Errorf("cid %d, never answered, got %+v, %v; want the connection closed", cid, resp, err)
			case j >= 0 && (!reflect.DeepEqual(resp, want[j].resp) || (err != nil) != (resp.Type == MsgError)):
				t.Errorf("cid %d got %+v, %v; want its first reply %+v", cid, resp, err, want[j].resp)
			}
		}

		// The notifications owed, each with its event: a notification frame
		// continues the last one's event when it has its Seq and vector.
		var owed []Notification
		var eventOf []int // owed[i]'s event
		events := 0
		var last *Response
		for i := range want {
			f := &want[i].resp
			if f.Type != MsgNotification {
				continue
			}
			if last == nil || f.Seq != last.Seq || !slices.EqualFunc(f.Vals, last.Vals, sameBits) {
				events++
			}
			last = f
			ev, _ := mapOf(clientFuzzSchema, f.Vals)
			for _, id := range f.IDs {
				owed = append(owed, Notification{Profile: id, Seq: f.Seq, Event: ev})
				eventOf = append(eventOf, events)
			}
		}
		if n := uint64(len(got)) + c.Dropped(); n != uint64(len(owed)) {
			t.Fatalf("received %d and dropped %d of %d notifications", len(got), c.Dropped(), len(owed))
		}
		// Received notifications are the owed ones in order, less the dropped.
		mapOf := map[int]uintptr{}   // event → its map
		eventAt := map[uintptr]int{} // map → its event
		k := 0
		for _, n := range got {
			for k < len(owed) && !sameNotification(n, owed[k]) {
				k++
			}
			if k == len(owed) {
				t.Fatalf("notification %+v is not owed, or out of order", n)
			}
			e, p := eventOf[k], reflect.ValueOf(n.Event).Pointer()
			if q, ok := mapOf[e]; ok && q != p {
				t.Errorf("the notifications of event %d do not share one map", e)
			}
			if f, ok := eventAt[p]; ok && f != e {
				t.Errorf("events %d and %d share one map", f, e)
			}
			mapOf[e], eventAt[p] = p, e
			k++
		}

		_ = c.Close()
		<-drained
		deadline := time.Now().Add(rpcTimeout)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine() - before; n > 0 {
			t.Errorf("%d goroutines outlive the closed client", n)
		}
	})
}

// sameNotification compares two notifications, their values bit for bit.
func sameNotification(a, b Notification) bool {
	if a.Profile != b.Profile || a.Seq != b.Seq || len(a.Event) != len(b.Event) {
		return false
	}
	for name, v := range a.Event {
		if w, ok := b.Event[name]; !ok || !sameBits(v, w) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestHelloSchemaRoundTrips is the hello's property test: over random
// schemas of numeric, integer and categorical attributes, with and without
// defaults, the schema and the defaults a client rebuilds from the hello's
// answer equal the server's.
func TestHelloSchemaRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	for round := range 200 {
		attrs := make([]schema.Attribute, 1+rng.IntN(5))
		defaults := map[string]float64{}
		for i := range attrs {
			var dom schema.Domain
			var def float64
			switch rng.IntN(3) {
			case 0:
				lo := rng.NormFloat64() * 100
				dom, _ = schema.NewNumericDomain(lo, lo+1e-3+rng.Float64()*100)
				def = lo + rng.Float64()*1e-3
			case 1:
				lo := rng.IntN(100) - 50
				dom, _ = schema.NewIntegerDomain(lo, lo+1+rng.IntN(100))
				def = float64(lo + 1)
			default:
				labels := make([]string, 2+rng.IntN(4))
				for j := range labels {
					labels[j] = fmt.Sprintf("l%d.%d", i, j)
				}
				dom, _ = schema.NewCategoricalDomain(labels...)
				def = float64(rng.IntN(len(labels)))
			}
			attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), Domain: dom}
			if round%2 == 1 && rng.IntN(2) == 0 {
				defaults[attrs[i].Name] = def
			}
		}
		sch := schema.MustNew(attrs...)
		brk, err := broker.New(sch, broker.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(brk, nil)
		if round%2 == 1 {
			d, err := event.NewDefaults(sch, defaults)
			if err != nil {
				t.Fatal(err)
			}
			srv.SetDefaults(d)
		}
		line, _ := EncodeLine(Response{Type: MsgOK, Op: OpHello, Proto: int(ProtoV2), Attributes: srv.schemaPayload()})
		brk.Close()
		answer, err := DecodeResponse(line)
		if err != nil {
			t.Fatal(err)
		}
		gotSch, gotDefaults, err := helloSchema(answer.Attributes)
		if err != nil {
			t.Fatalf("round %d: %s: %v", round, line, err)
		}
		if !reflect.DeepEqual(gotSch, sch) {
			t.Fatalf("round %d: rebuilt %s from %s, want %s", round, gotSch, line, sch)
		}
		wantVals, wantHas := make([]float64, sch.N()), make([]bool, sch.N())
		gotVals, gotHas := make([]float64, sch.N()), make([]bool, sch.N())
		srv.defaults.Fill(wantVals, wantHas)
		gotDefaults.Fill(gotVals, gotHas)
		if !slices.Equal(gotVals, wantVals) || !slices.Equal(gotHas, wantHas) {
			t.Fatalf("round %d: rebuilt defaults %v %v from %s, want %v %v", round, gotVals, gotHas, line, wantVals, wantHas)
		}
	}
}

// TestDialRefusesInvalidSchema: a hello whose attributes form no valid schema
// fails the dial.
func TestDialRefusesInvalidSchema(t *testing.T) {
	seven := 7.0
	for name, attrs := range map[string][]AttrPayload{
		"empty kind":          {{Name: "a", Hi: 1}},
		"unknown kind":        {{Name: "a", Kind: "complex", Hi: 1}},
		"lo above hi":         {{Name: "a", Kind: "numeric", Lo: 2, Hi: 1}},
		"integer lo above hi": {{Name: "a", Kind: "integer", Lo: 2, Hi: 1}},
		"one label":           {{Name: "a", Kind: "categorical", Hi: 0, Labels: []string{"x"}}},
		"fractional integer":  {{Name: "a", Kind: "integer", Lo: 0.5, Hi: 3}},
		"labels beyond hi":    {{Name: "a", Kind: "categorical", Hi: 1, Labels: []string{"x", "y", "z"}}},
		"duplicate name":      {{Name: "a", Kind: "numeric", Hi: 1}, {Name: "a", Kind: "numeric", Hi: 1}},
		"no attributes":       nil,
		"default off domain":  {{Name: "a", Kind: "numeric", Hi: 1, Default: &seven}},
	} {
		answer, _ := EncodeLine(Response{Type: MsgOK, Op: OpHello, Proto: int(ProtoV2), Attributes: attrs})
		if c, err := DialWith(stubServer(t, answer), DialConfig{Timeout: rpcTimeout}); err == nil {
			_ = c.Close()
			t.Errorf("%s: the dial succeeded", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestClientCompletionAllocations pins what completing maps costs a client
// over sending the same vectors on the same connection: one object per
// Publish(map), its vector, and none per PublishBatch(maps), whose vectors
// are pooled scratch.
func TestClientCompletionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	c, err := DialWith(startServerWith(t, map[string]float64{"humidity": 50}), DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	m, vals := map[string]float64{"temperature": 5}, []float64{5, 50}
	ms, batch := make([]map[string]float64, 64), make([][]float64, 64)
	for i := range ms {
		ms[i], batch[i] = m, vals
	}
	must := func(_ any, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	const n = 500
	perCall := func(f, base func()) float64 {
		return math.Round((float64(mallocs(n, f)) - float64(mallocs(n, base))) / n)
	}
	if got := perCall(func() { must(c.Publish(m, rpcTimeout)) }, func() { must(c.PublishVals(vals, rpcTimeout)) }); got != 1 {
		t.Errorf("Publish(map) allocates %v objects more than PublishVals, want 1 (the vector)", got)
	}
	if got := perCall(func() { must(c.PublishBatch(ms, rpcTimeout)) }, func() { must(c.PublishValsBatch(batch, rpcTimeout)) }); got != 0 {
		t.Errorf("PublishBatch(64 maps) allocates %v objects more than PublishValsBatch, want 0", got)
	}
}
