package wire

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// rawClient drives a hand-upgraded connection: requests go out as frames,
// and every frame the server sends is kept as its type byte and payload.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Reader
	sl   *slots
	cid  uint32
}

// rawDial connects to addr and performs the hello exchange by hand.
func rawDial(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, rd := upgradeRaw(t, addr)
	t.Cleanup(func() { _ = conn.Close() })
	return &rawClient{t: t, conn: conn, rd: rd, sl: newSlots([]string{"temperature", "humidity"})}
}

// read returns the next frame as type byte + payload.
func (rc *rawClient) read(wait time.Duration) ([]byte, error) {
	_ = rc.conn.SetReadDeadline(time.Now().Add(wait))
	var buf []byte
	typ, payload, err := ReadFrame(rc.rd, &buf)
	return append([]byte{typ}, payload...), err
}

// call posts one request and reads its reply; no notification may be in
// flight.
func (rc *rawClient) call(req Request) {
	rc.t.Helper()
	rc.cid++
	b, err := appendRequest(nil, rc.cid, req, rc.sl)
	if err != nil {
		rc.t.Fatal(err)
	}
	if _, err := rc.conn.Write(b); err != nil {
		rc.t.Fatal(err)
	}
	msg, err := rc.read(rpcTimeout)
	if err != nil {
		rc.t.Fatalf("%s: %v", req.Op, err)
	}
	_, resp, err := decodeResponseFrame(msg[0], msg[1:], &inbound{})
	if err != nil || resp.Type != MsgOK {
		rc.t.Fatalf("%s: reply %+v, %v", req.Op, resp, err)
	}
}

// wireProfiles are three profiles the event (41, 10) matches, all of them.
var wireProfiles = []string{"profile(temperature >= 35)", "profile(temperature >= 40)", "profile(humidity <= 20)"}

// TestNotifySpellingsOnTheWire reads the notification frame off real
// sockets: one event matching three subscriptions of a connection reaches it
// as one frame listing the three ids, and nobody receives another
// connection's ids.
func TestNotifySpellingsOnTheWire(t *testing.T) {
	addr := startServer(t)
	ids := func(prefix string) []string {
		return []string{prefix + "a", prefix + "b", prefix + "c"}
	}
	conns := map[string]*rawClient{"x-": rawDial(t, addr), "y-": rawDial(t, addr)}
	for prefix, rc := range conns {
		for i, id := range ids(prefix) {
			rc.call(Request{Op: OpSubscribe, ID: id, Profile: wireProfiles[i]})
		}
	}

	pub, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	vals := []float64{41, 10}
	if matched, err := pub.PublishVals(vals, rpcTimeout); err != nil || matched != 6 {
		t.Fatalf("publish matched %d, %v; want 6", matched, err)
	}

	for prefix, rc := range conns {
		// Usually one frame; the forwarder may also wake between two of the
		// broker's sends and write the ids it has, the rest in a second frame.
		var got []string
		for len(got) < 3 {
			msg, err := rc.read(rpcTimeout)
			if err != nil || msg[0] != frameNotifyGroup {
				t.Fatalf("%s: frame type 0x%02x, %v", prefix, msg[0], err)
			}
			_, resp, err := decodeResponseFrame(msg[0], msg[1:], &inbound{})
			if err != nil || resp.Seq != 1 || !reflect.DeepEqual(resp.Vals, vals) {
				t.Fatalf("%s: notification frame = %+v, %v", prefix, resp, err)
			}
			got = append(got, resp.IDs...)
		}
		if extra, err := rc.read(50 * time.Millisecond); err == nil {
			t.Fatalf("%s: unexpected extra frame %q", prefix, extra)
		}
		if sort.Strings(got); !reflect.DeepEqual(got, ids(prefix)) {
			t.Errorf("%s connection was notified of %v", prefix, got)
		}
	}
}

// v2Confirmation is the hello answer of a scripted server over the test
// schema.
func v2Confirmation() []byte {
	confirm, _ := EncodeLine(Response{Type: MsgOK, Op: OpHello, Proto: int(ProtoV2),
		Attributes: []AttrPayload{{Name: "temperature", Kind: "numeric", Lo: -30, Hi: 50}, {Name: "humidity", Kind: "numeric", Hi: 100}}})
	return confirm
}

// stubV2Server accepts one connection, confirms its hello and then writes
// stream.
func stubV2Server(t *testing.T, stream []byte) string {
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
		rd := bufio.NewReader(conn)
		if _, err := ReadLine(rd); err != nil {
			return
		}
		if _, err := conn.Write(append(v2Confirmation(), stream...)); err != nil {
			return
		}
		_, _ = rd.ReadByte() // hold the connection until the client leaves
	}()
	return ln.Addr().String()
}

// TestClientTakesEitherSpelling: the client fans one notification frame out
// into one Response per id, all sharing the one decoded vector. (The subtest
// keeps its name from beside the retired per-id case.)
func TestClientTakesEitherSpelling(t *testing.T) {
	t.Run("echo, grouped frame", func(t *testing.T) {
		vals := []float64{41, 10}
		c, err := DialWith(stubV2Server(t, appendNotifyGroupFrame(nil, 7, vals, []string{"a", "b"})), DialConfig{Timeout: rpcTimeout})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		var got []Response
		for i := 0; i < 2; i++ {
			select {
			case n := <-c.Notifications():
				got = append(got, n)
			case <-time.After(rpcTimeout):
				t.Fatalf("notification %d never arrived", i)
			}
		}
		for i, id := range []string{"a", "b"} {
			if n := got[i]; n.Type != MsgNotification || n.Profile != id || n.IDs != nil || n.Seq != 7 || !reflect.DeepEqual(n.Vals, vals) {
				t.Errorf("notification %d = %+v", i, n)
			}
		}
		if &got[0].Vals[0] != &got[1].Vals[0] {
			t.Error("the two notifications of one frame do not share its vector")
		}
	})
}

// TestNotificationsOfOneEventArriveTogether: with one publisher, the
// notifications a connection receives come in Seq order, those of one event
// back to back. (Usually in one frame, but the forwarder may wake between two
// of the broker's sends and split them: that is not an error.)
func TestNotificationsOfOneEventArriveTogether(t *testing.T) {
	addr := startServer(t)
	sub, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	const k, events = 4, 60 // k*events stays under the client's 256 buffered notifications
	for i := 0; i < k; i++ {
		if err := sub.Subscribe(fmt.Sprint("s", i), fmt.Sprintf("profile(temperature >= %d)", 30+i), 0, rpcTimeout); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	batch := make([][]float64, events)
	for i := range batch {
		batch[i] = []float64{40, float64(i)}
	}
	if _, err := pub.PublishValsBatch(batch, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	for ev := 0; ev < events; ev++ {
		seen := map[string]bool{}
		for i := 0; i < k; i++ {
			select {
			case n := <-sub.Notifications():
				if n.Seq != uint64(ev+1) || n.Vals[1] != float64(ev) {
					t.Fatalf("event %d, notification %d: seq %d vals %v", ev, i, n.Seq, n.Vals)
				}
				seen[n.Profile] = true
			case <-time.After(rpcTimeout):
				t.Fatalf("event %d: notification %d never arrived", ev, i)
			}
		}
		if len(seen) != k {
			t.Fatalf("event %d notified %v, want %d distinct ids", ev, seen, k)
		}
	}
}

// TestInterleavedPublishersKeepEventsApart: two publishers race their events
// into one connection's queue, so the notifications of different events
// interleave there. A frame may then carry only part of an event's ids, but
// never an id the frame's own event did not match: grouping joins neighbours
// of one Seq and nothing else.
func TestInterleavedPublishersKeepEventsApart(t *testing.T) {
	addr := startServer(t)
	rc := rawDial(t, addr)
	rc.call(Request{Op: OpSubscribe, ID: "warm", Profile: "profile(temperature >= 0)"})
	rc.call(Request{Op: OpSubscribe, ID: "warmer", Profile: "profile(temperature >= 5)"})
	rc.call(Request{Op: OpSubscribe, ID: "cold", Profile: "profile(temperature <= -1)"})
	rc.call(Request{Op: OpSubscribe, ID: "colder", Profile: "profile(temperature <= -5)"})
	rc.call(Request{Op: OpSubscribe, ID: "wet", Profile: "profile(humidity >= 50)"})
	oracle := func(vals []float64) []string {
		var ids []string
		if vals[0] >= 0 {
			ids = append(ids, "warm", "warmer")
		} else {
			ids = append(ids, "cold", "colder")
		}
		if vals[1] >= 50 {
			ids = append(ids, "wet")
		}
		sort.Strings(ids)
		return ids
	}

	// Nothing throttles the publishers, so everything they cause must fit the
	// connection's queue: 2 * (25*2 + 25*3) = 250 notifications of its 256.
	const perPublisher = 50
	var wg sync.WaitGroup
	for _, temp := range []float64{10, -10} {
		pub, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = pub.Close() }()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if _, err := pub.PublishVals([]float64{temp, float64(i%2) * 80}, rpcTimeout); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	type event struct {
		vals []float64
		ids  []string
	}
	bySeq := map[uint64]*event{}
	owed := 2 * (perPublisher/2*2 + perPublisher/2*3) // each publisher: half its events dry (2 ids), half wet (3)
	for got := 0; got < owed; {
		msg, err := rc.read(rpcTimeout)
		if err != nil {
			t.Fatalf("after %d of %d notifications: %v", got, owed, err)
		}
		_, resp, err := decodeResponseFrame(msg[0], msg[1:], &inbound{})
		if err != nil || msg[0] != frameNotifyGroup {
			t.Fatalf("frame type 0x%02x: %+v, %v", msg[0], resp, err)
		}
		ev := bySeq[resp.Seq]
		if ev == nil {
			ev = &event{vals: resp.Vals}
			bySeq[resp.Seq] = ev
		}
		if !reflect.DeepEqual(ev.vals, resp.Vals) {
			t.Fatalf("seq %d arrived with vectors %v and %v", resp.Seq, ev.vals, resp.Vals)
		}
		ev.ids = append(ev.ids, resp.IDs...)
		got += len(resp.IDs)
	}
	wg.Wait()
	if len(bySeq) != 2*perPublisher {
		t.Errorf("%d events notified, want %d", len(bySeq), 2*perPublisher)
	}
	for seq, ev := range bySeq {
		sort.Strings(ev.ids)
		if want := oracle(ev.vals); !reflect.DeepEqual(ev.ids, want) {
			t.Errorf("seq %d %v notified %v, want %v", seq, ev.vals, ev.ids, want)
		}
	}
}

// TestHelloRefusedOnceSubscribed: a hello is refused after the first line —
// also on a connection that subscribed and has a forwarder writing to it —
// and the connection lives on.
func TestHelloRefusedOnceSubscribed(t *testing.T) {
	c, err := DialWith(startServer(t), DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe("hot", rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip(Request{Op: OpHello, Proto: int(ProtoV2)}, rpcTimeout); err == nil {
		t.Error("hello after a subscription must fail")
	}
	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatalf("connection died after the refused hello: %v", err)
	}
}

// TestNotifyDecodeAllocations pins what a client pays per event however many
// of its subscriptions the event matched: the vector, which the consumer
// keeps, and nothing per id once the ids have been seen.
func TestNotifyDecodeAllocations(t *testing.T) {
	frame := appendNotifyGroupFrame(nil, 7, []float64{41, 10}, []string{"hot", "dry", "a third, longer subscription id"})
	in := &inbound{}
	decode := func() {
		if _, resp, err := decodeResponseFrame(frame[4], frame[5:], in); err != nil || len(resp.IDs) != 3 {
			t.Fatalf("decode = %+v, %v", resp, err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 1 {
		t.Errorf("decoding a 3-id notification allocates %v times, want 1 (the vector)", n)
	}
}

// TestBatchVectorsShareOneBlock: the vectors of a publish_batch frame are
// carved out of one allocation, each capped at its own length so that no
// append through one can reach the next, which notifications may retain.
func TestBatchVectorsShareOneBlock(t *testing.T) {
	frame := appendPublishBatchFrame(nil, 3, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	in := &inbound{}
	decode := func() [][]float64 {
		_, req, err := decodeRequestFrame(frame[4], frame[5:], in)
		if err != nil || len(req.Batch) != 3 {
			t.Fatalf("decode = %+v, %v", req, err)
		}
		return req.Batch
	}
	batch := decode()
	for i, v := range batch {
		if cap(v) != len(v) || v[0] != float64(2*i+1) || v[1] != float64(2*i+2) {
			t.Errorf("vector %d = %v (cap %d)", i, v, cap(v))
		}
	}
	_ = append(batch[0], 99)
	if batch[1][0] != 3 {
		t.Error("an append through one vector reached its neighbour")
	}
	if n := testing.AllocsPerRun(100, func() { decode() }); n != 1 {
		t.Errorf("decoding a 3-event batch allocates %v times, want 1 (the block)", n)
	}
	retained := batch[0] // as a notification would
	if batch = decode(); &batch[0][0] == &retained[0] || retained[0] != 1 {
		t.Error("two frames decoded into the same block: retained vectors would be overwritten")
	}
}
