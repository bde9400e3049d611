package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// rawClient drives a hand-upgraded connection: requests go out in the
// connection's codec, and every message the server sends is kept as the bytes
// it arrived in (a frame's type byte and payload, or a line).
type rawClient struct {
	t      *testing.T
	conn   net.Conn
	rd     *bufio.Reader
	frames bool
	sl     *slots
	cid    uint32
}

// rawDial connects to addr: with hello nil it stays a v1 line connection,
// otherwise it upgrades with that hello and returns the confirmation too.
func rawDial(t *testing.T, addr string, hello *Request) (*rawClient, Response) {
	t.Helper()
	rc := &rawClient{t: t, sl: newSlots([]string{"temperature", "humidity"})}
	var confirm Response
	if hello == nil {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		rc.conn, rc.rd = conn, bufio.NewReader(conn)
	} else {
		rc.conn, rc.rd, confirm = upgradeRawWith(t, addr, *hello)
		rc.frames = true
	}
	t.Cleanup(func() { _ = rc.conn.Close() })
	return rc, confirm
}

// read returns the next message: a frame as type byte + payload, or a line.
func (rc *rawClient) read(wait time.Duration) ([]byte, error) {
	_ = rc.conn.SetReadDeadline(time.Now().Add(wait))
	if !rc.frames {
		line, err := ReadLine(rc.rd)
		return bytes.Clone(line), err
	}
	var buf []byte
	typ, payload, err := ReadFrame(rc.rd, &buf)
	return append([]byte{typ}, payload...), err
}

// call posts one request and reads its reply; no notification may be in
// flight.
func (rc *rawClient) call(req Request) {
	rc.t.Helper()
	rc.cid++
	var c codec = lineCodec{}
	if rc.frames {
		c = frameCodec{}
	}
	b, err := c.appendRequest(nil, rc.cid, req, rc.sl)
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
	var resp Response
	if rc.frames {
		_, resp, err = decodeResponseFrame(msg[0], msg[1:], new(Inbound))
	} else {
		resp, err = DecodeResponse(msg)
	}
	if err != nil || resp.Type != MsgOK {
		rc.t.Fatalf("%s: reply %+v, %v", req.Op, resp, err)
	}
}

// wireProfiles are three profiles the event (41, 10) matches, all of them.
var wireProfiles = []string{"profile(temperature >= 35)", "profile(temperature >= 40)", "profile(humidity <= 20)"}

// TestNotifySpellingsOnTheWire is the compatibility matrix of the grouped
// notification, read off real sockets: one event matching three subscriptions
// of a connection reaches a client whose hello offered Grouped as one frame
// listing the three ids; a v2 client that did not offer it as three frameNotify
// frames, byte for byte what they were before the grouped frame existed; and a
// v1 client as three lines. Nobody receives another connection's ids.
func TestNotifySpellingsOnTheWire(t *testing.T) {
	addr := startServer(t)
	grouped, confirm := rawDial(t, addr, &Request{Op: OpHello, Proto: int(ProtoV2), Grouped: true})
	if !confirm.Grouped {
		t.Fatal("the server did not echo the Grouped offer")
	}
	plain, confirm := rawDial(t, addr, &Request{Op: OpHello, Proto: int(ProtoV2)})
	if confirm.Grouped {
		t.Fatal("the server confirmed Grouped to a client that did not offer it")
	}
	lines, _ := rawDial(t, addr, nil)
	ids := func(prefix string) []string {
		return []string{prefix + "a", prefix + "b", prefix + "c"}
	}
	for prefix, rc := range map[string]*rawClient{"g-": grouped, "p-": plain, "l-": lines} {
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
	if matched, err := pub.PublishVals(vals, rpcTimeout); err != nil || matched != 9 {
		t.Fatalf("publish matched %d, %v; want 9", matched, err)
	}

	// messages reads exactly n messages and then requires silence.
	messages := func(rc *rawClient, n int) [][]byte {
		t.Helper()
		var out [][]byte
		for i := 0; i < n; i++ {
			msg, err := rc.read(rpcTimeout)
			if err != nil {
				t.Fatalf("message %d of %d: %v", i, n, err)
			}
			out = append(out, msg)
		}
		if extra, err := rc.read(50 * time.Millisecond); err == nil {
			t.Fatalf("unexpected extra message %q", extra)
		}
		return out
	}
	sorted := func(ss []string) []string { sort.Strings(ss); return ss }

	// Usually one frame; the forwarder may also wake between two of the
	// broker's sends and write the ids it has, the rest in a second frame.
	var got []string
	for len(got) < 3 {
		msg, err := grouped.read(rpcTimeout)
		if err != nil || msg[0] != frameNotifyGroup {
			t.Fatalf("grouped connection: frame type 0x%02x, %v", msg[0], err)
		}
		_, resp, err := decodeResponseFrame(msg[0], msg[1:], new(Inbound))
		if err != nil || resp.Seq != 1 || !reflect.DeepEqual(resp.Vals, vals) {
			t.Fatalf("grouped frame = %+v, %v", resp, err)
		}
		got = append(got, resp.IDs...)
	}
	if messages(grouped, 0); !reflect.DeepEqual(sorted(got), ids("g-")) {
		t.Errorf("grouped connection was notified of %v", got)
	}

	var want []string
	got = got[:0]
	for _, msg := range messages(plain, 3) {
		got = append(got, string(msg))
	}
	for _, id := range ids("p-") {
		want = append(want, string(appendNotifyFrame(nil, id, 1, vals)[4:])) // past the length prefix
	}
	if !reflect.DeepEqual(sorted(got), sorted(want)) {
		t.Errorf("plain v2 connection got\n %q, want the per-id frames\n %q", got, want)
	}

	got = got[:0]
	for _, msg := range messages(lines, 3) {
		resp, err := DecodeResponse(msg)
		if err != nil || resp.Type != MsgNotification || resp.Seq != 1 || resp.Event["temperature"] != 41 {
			t.Errorf("v1 line %q = %+v, %v", msg, resp, err)
		}
		got = append(got, resp.Profile)
	}
	if !reflect.DeepEqual(sorted(got), ids("l-")) {
		t.Errorf("v1 connection was notified of %v", got)
	}
}

// v2Confirmation is the hello reply of a scripted v2 server over the test
// schema, echoing the Grouped offer or not.
func v2Confirmation(echo bool) []byte {
	confirm, _ := EncodeLine(Response{Type: MsgOK, Op: OpHello, Proto: int(ProtoV2), Grouped: echo,
		Attributes: []AttrPayload{{Name: "temperature", Kind: "numeric", Lo: -30, Hi: 50}, {Name: "humidity", Kind: "numeric", Hi: 100}}})
	return confirm
}

// stubV2Server accepts one connection, confirms its v2 hello (echoing the
// Grouped offer or not) and then writes stream.
func stubV2Server(t *testing.T, echo bool, stream []byte) string {
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
		if _, err := conn.Write(append(v2Confirmation(echo), stream...)); err != nil {
			return
		}
		_, _ = rd.ReadByte() // hold the connection until the client leaves
	}()
	return ln.Addr().String()
}

// TestClientTakesEitherSpelling: a server that confirms v2 without echoing
// the Grouped offer (any daemon older than the grouped frame) keeps sending
// one frame per id and the client delivers them as ever; a server that echoes
// it sends one frame per event, which the client fans out into one Response
// per id, all sharing the one decoded vector.
func TestClientTakesEitherSpelling(t *testing.T) {
	vals := []float64{41, 10}
	perID := append(appendNotifyFrame(nil, "a", 7, vals), appendNotifyFrame(nil, "b", 7, vals)...)
	for name, tc := range map[string]struct {
		echo   bool
		stream []byte
	}{
		"no echo, per-id frames": {false, perID},
		"echo, grouped frame":    {true, appendNotifyGroupFrame(nil, 7, vals, []string{"a", "b"})},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := DialWith(stubV2Server(t, tc.echo, tc.stream), DialConfig{Timeout: rpcTimeout, Proto: ProtoV2})
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
			if shared := &got[0].Vals[0] == &got[1].Vals[0]; shared != tc.echo {
				t.Errorf("the two notifications share their vector: %v, want %v", shared, tc.echo)
			}
		})
	}
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
	rc, _ := rawDial(t, addr, &Request{Op: OpHello, Proto: int(ProtoV2), Grouped: true})
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
		_, resp, err := decodeResponseFrame(msg[0], msg[1:], new(Inbound))
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

// TestHelloRefusedOnceSubscribed: a connection that ever subscribed has a
// forwarder writing to it, so a hello is refused from then on — also after
// its last subscription is gone again — and the connection lives on.
func TestHelloRefusedOnceSubscribed(t *testing.T) {
	c, err := DialWith(startServer(t), DialConfig{Timeout: rpcTimeout, Proto: ProtoV1})
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
	if _, err := c.roundTrip(Request{Op: OpHello, Proto: int(ProtoV2), Grouped: true}, rpcTimeout); err == nil {
		t.Error("hello after a subscription must fail")
	}
	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatalf("connection died after the refused hello: %v", err)
	}
}

// TestGroupedDecodeAllocations pins what a client pays per event however many
// of its subscriptions the event matched: the vector, which the consumer
// keeps, and nothing per id once the ids have been seen.
func TestGroupedDecodeAllocations(t *testing.T) {
	frame := appendNotifyGroupFrame(nil, 7, []float64{41, 10}, []string{"hot", "dry", "a third, longer subscription id"})
	in := new(Inbound)
	decode := func() {
		if _, resp, err := decodeResponseFrame(frame[4], frame[5:], in); err != nil || len(resp.IDs) != 3 {
			t.Fatalf("decode = %+v, %v", resp, err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 1 {
		t.Errorf("decoding a 3-id notification allocates %v times, want 1 (the vector)", n)
	}
	one := appendNotifyFrame(nil, "hot", 7, []float64{41, 10})
	if n := testing.AllocsPerRun(100, func() { _, _, _ = decodeResponseFrame(one[4], one[5:], in) }); n != 1 {
		t.Errorf("decoding a per-id notification allocates %v times, want 1 (the vector)", n)
	}
}

// TestBatchVectorsShareOneBlock: the vectors of a publish_batch frame are
// carved out of one allocation, each capped at its own length so that no
// append through one can reach the next, which notifications may retain.
func TestBatchVectorsShareOneBlock(t *testing.T) {
	frame := appendPublishBatchFrame(nil, 3, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	in := new(Inbound)
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
