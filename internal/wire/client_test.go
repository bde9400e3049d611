package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
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
		Attributes: []AttrPayload{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}})
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

// clientFuzzAttrs is the schema FuzzClientReader's client learns.
var clientFuzzAttrs = []AttrPayload{{Name: "temperature"}, {Name: "humidity"}}

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
		sl := attrSlots(clientFuzzAttrs)
		var want []frame
		ref := &inbound{rd: bufio.NewReader(bytes.NewReader(stream))}
		for {
			cid, resp, err := readResponse(ref)
			if err == nil && resp.Type == MsgNotification {
				_, err = sl.mapOf(resp.Vals)
				resp.Vals, resp.IDs = slices.Clone(resp.Vals), slices.Clone(resp.IDs)
			}
			if err != nil {
				break
			}
			want = append(want, frame{cid, resp})
		}

		before := runtime.NumGoroutine()
		ours, theirs := net.Pipe()
		c := newClient(ours, bufio.NewReader(ours), clientFuzzAttrs, 1)
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
			ev, _ := sl.mapOf(f.Vals)
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
