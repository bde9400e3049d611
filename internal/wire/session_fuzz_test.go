package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/schema"
)

// The vocabulary of FuzzSession. Every pool is small, so that a short input
// reaches the interesting states: a duplicate subscription, an unsubscribe of
// an id that left, an event that the live profiles split.
var (
	fuzzIDs = []string{"hot", "warm", "a", "b"}
	// fuzzProfiles pairs each expression with a brute-force matcher; nil
	// marks one that does not parse.
	fuzzProfiles = []fuzzProfile{
		{"profile(temperature >= 35)", func(v []float64) bool { return v[0] >= 35 }},
		{"profile(temperature >= 20)", func(v []float64) bool { return v[0] >= 20 }},
		{"profile(temperature >= -30)", func(v []float64) bool { return true }},
		{"profile(humidity <= 20)", func(v []float64) bool { return v[1] <= 20 }},
		{"profile(temperature <= -1; humidity >= 50)", func(v []float64) bool { return v[0] <= -1 && v[1] >= 50 }},
		{"profile(bogus >= 0)", nil},
	}
	// fuzzEvents holds the script's vectors and their neighbours, then the
	// refused: wrong arity, out of domain, NaN and infinity.
	fuzzEvents = [][]float64{
		{41, 10}, {45, 20}, {5, 20}, {36, 1}, {0, 2}, {50, 3}, {37, 4}, {1, 5},
		{30, 1}, {40, 2}, {25, 3}, {-30, 100}, {-10, 90}, {20, 50}, {35, 20},
		{1}, {2}, {}, {36, 1, 2}, {400, 10}, {10, -1}, {math.NaN(), 10}, {10, math.Inf(1)},
	}
	fuzzQuenches = []Request{
		{Op: OpQuench, Attr: "temperature", Lo: -30, Hi: 0},
		{Op: OpQuench, Attr: "temperature", Lo: 30, Hi: 50},
		{Op: OpQuench, Attr: "humidity", Lo: 0, Hi: 100},
		{Op: OpQuench, Attr: "nosuch", Lo: 0, Hi: 1},
	}
	// fuzzPeerFrames are the frames a client connection must not carry: the
	// retired one-id notification and the three peer frames among them.
	fuzzPeerFrames = [][]byte{
		{0, 0, 0, 3, 0x7F, 'x', 'y'},
		{0, 0, 0, 1, 0x44},
		AppendForwardFrame(nil, []float64{41, 10}),
		AppendRouteAddFrame(nil, "hot", "profile(temperature >= 35)", 0),
		AppendRouteWithdrawFrame(nil, "hot"),
	}
)

type fuzzProfile struct {
	expr  string
	match func(v []float64) bool
}

// Opcodes of the fuzzed byte language: one byte picks the op (modulo the
// count) and the connection that sends it (the quotient's parity), the bytes
// after it the op's arguments.
const (
	fuzzSubscribe   = iota // id + 4·profile
	fuzzUnsubscribe        // id
	fuzzPublish            // event
	fuzzBatch              // k−1, then k events
	fuzzPing
	fuzzSchema
	fuzzStats
	fuzzQuench // region
	fuzzProfilesOp
	fuzzHello
	fuzzUnknownOp
	fuzzJSONPublish // bit 0: publish or publish_batch
	fuzzBadType     // frame
	fuzzTruncated   // where to cut
	fuzzOps
)

const (
	maxFuzzSteps  = 64
	maxFuzzEvents = 60 // × 4 ids stays within a connection's 256 queued notifications
	fuzzConns     = 2
)

// fuzzStep is one request of a fuzzed session, or the raw bytes of the
// framing error that ends it, and the connection that sends it.
type fuzzStep struct {
	conn int
	req  Request
	raw  []byte
}

// decodeSession reads a session out of the fuzzer's bytes. Bytes past the end
// read as zero; the session ends with the input, at a framing error, after
// maxFuzzSteps requests, or before the publish that would pass
// maxFuzzEvents.
func decodeSession(data []byte) []fuzzStep {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var steps []fuzzStep
	events := 0
	for len(data) > 0 && len(steps) < maxFuzzSteps {
		var req Request
		op := next()
		conn := op / fuzzOps % fuzzConns
		switch op % fuzzOps {
		case fuzzSubscribe:
			a := next()
			req = Request{Op: OpSubscribe, ID: fuzzIDs[a%len(fuzzIDs)], Profile: fuzzProfiles[a/len(fuzzIDs)%len(fuzzProfiles)].expr}
		case fuzzUnsubscribe:
			req = Request{Op: OpUnsubscribe, ID: fuzzIDs[next()%len(fuzzIDs)]}
		case fuzzPublish:
			req = Request{Op: OpPublish, Vals: fuzzEvents[next()%len(fuzzEvents)]}
			events++
		case fuzzBatch:
			req = Request{Op: OpPublishBatch, Batch: make([][]float64, 1+next()%4)}
			for i := range req.Batch {
				req.Batch[i] = fuzzEvents[next()%len(fuzzEvents)]
			}
			events += len(req.Batch)
		case fuzzPing:
			req = Request{Op: OpPing}
		case fuzzSchema:
			req = Request{Op: OpSchema}
		case fuzzStats:
			req = Request{Op: OpStats}
		case fuzzQuench:
			req = fuzzQuenches[next()%len(fuzzQuenches)]
		case fuzzProfilesOp:
			req = Request{Op: OpProfiles}
		case fuzzHello:
			req = Request{Op: OpHello, Proto: int(ProtoV2)}
		case fuzzUnknownOp:
			req = Request{Op: "frobnicate"}
		case fuzzJSONPublish:
			req = Request{Op: []Op{OpPublish, OpPublishBatch}[next()%2]}
		case fuzzBadType:
			return append(steps, fuzzStep{conn: conn, raw: fuzzPeerFrames[next()%len(fuzzPeerFrames)]})
		case fuzzTruncated:
			full := appendPublishFrame(nil, 1, []float64{41, 10})
			return append(steps, fuzzStep{conn: conn, raw: full[:1+next()%(len(full)-1)]})
		}
		if events > maxFuzzEvents {
			break
		}
		steps = append(steps, fuzzStep{conn: conn, req: req})
	}
	return steps
}

// encodeSession is decodeSession's inverse for requests drawn from the pools.
func encodeSession(t testing.TB, steps []fuzzStep) []byte {
	t.Helper()
	find := func(what string, n int, eq func(int) bool) byte {
		for i := 0; i < n; i++ {
			if eq(i) {
				return byte(i)
			}
		}
		t.Fatalf("%s is not in FuzzSession's pools", what)
		return 0
	}
	event := func(v []float64) byte {
		return find(fmt.Sprint(v), len(fuzzEvents), func(i int) bool { return slices.Equal(fuzzEvents[i], v) })
	}
	id := func(s string) byte { return find(s, len(fuzzIDs), func(i int) bool { return fuzzIDs[i] == s }) }
	var out []byte
	for _, st := range steps {
		req, op := st.req, func(code byte) byte { return code + byte(st.conn*fuzzOps) }
		switch req.Op {
		case OpSubscribe:
			p := find(req.Profile, len(fuzzProfiles), func(i int) bool { return fuzzProfiles[i].expr == req.Profile })
			out = append(out, op(fuzzSubscribe), id(req.ID)+byte(len(fuzzIDs))*p)
		case OpUnsubscribe:
			out = append(out, op(fuzzUnsubscribe), id(req.ID))
		case OpPublish:
			out = append(out, op(fuzzPublish), event(req.Vals))
		case OpPublishBatch:
			out = append(out, op(fuzzBatch), byte(len(req.Batch)-1))
			for _, v := range req.Batch {
				out = append(out, event(v))
			}
		case OpQuench:
			out = append(out, op(fuzzQuench), find(req.Attr, len(fuzzQuenches), func(i int) bool {
				q := fuzzQuenches[i]
				return q.Attr == req.Attr && q.Lo == req.Lo && q.Hi == req.Hi
			}))
		case OpPing:
			out = append(out, op(fuzzPing))
		case OpSchema:
			out = append(out, op(fuzzSchema))
		case OpStats:
			out = append(out, op(fuzzStats))
		case OpProfiles:
			out = append(out, op(fuzzProfilesOp))
		case OpHello:
			out = append(out, op(fuzzHello))
		default:
			out = append(out, op(fuzzUnknownOp))
		}
	}
	return out
}

// scriptSteps is the session script as the client sends it, on connection 0:
// its maps turned into vectors, and the step the client refuses left out.
func scriptSteps() []fuzzStep {
	sch := numericSchema("temperature", "humidity")
	var steps []fuzzStep
	for _, st := range sessionScript {
		if req, err := st.request(sch, nil); err == nil {
			steps = append(steps, fuzzStep{req: req})
		}
	}
	return steps
}

// FuzzSession drives two raw connections to a fresh server through a fuzzed
// sequence of request frames. Consecutive requests of one connection are
// written at once (pipelined), and their replies read, before the other
// connection speaks, so that one model orders both. It checks each
// connection against that model:
//   - every request before a framing error gets exactly one reply, in order,
//     under its correlation id, on the connection that sent it, and the reply
//     is the model's: a match count a brute-force count over the live
//     subscriptions of both connections, an error where the model refuses
//     (an id live on either connection is taken; only its own connection may
//     unsubscribe it);
//   - every notification a connection receives names only ids that were live
//     on that connection when its event was published and whose profile
//     matches the event, and every such id is named once: replies and
//     notifications share a connection's outbox, and none crosses to the
//     other connection or tears a frame;
//   - a framing error closes its connection, and once both have ended the
//     broker is left without subscriptions;
//   - no goroutine survives Close.
func FuzzSession(f *testing.F) {
	script := encodeSession(f, scriptSteps())
	f.Add(script)
	f.Add(append(slices.Clone(script), fuzzBadType, 2))   // then a forward frame
	f.Add(append(slices.Clone(script), fuzzTruncated, 9)) // then a cut publish
	// The script's bystander: a second connection subscribed to every event.
	f.Add(append(encodeSession(f, []fuzzStep{{conn: 1, req: Request{Op: OpSubscribe, ID: "b", Profile: "profile(temperature >= -30)"}}}), script...))
	f.Add([]byte{fuzzSubscribe, 2, fuzzSubscribe, 2, fuzzJSONPublish, 1, fuzzBatch, 3, 0, 22, 21, 11, fuzzProfilesOp, fuzzStats})
	// Two subscriptions, split by an event, outlive a peer frame.
	f.Add([]byte{fuzzSubscribe, 0, fuzzSubscribe, 1 + 4*3, fuzzPublish, 0, fuzzBadType, 3})
	// Each connection claims an id; the other can neither take it nor
	// unsubscribe it, and is notified of its own id only.
	f.Add([]byte{fuzzSubscribe, 0, fuzzOps + fuzzSubscribe, 1 + 4*2, fuzzOps + fuzzSubscribe, 0, fuzzOps + fuzzUnsubscribe, 0,
		fuzzPublish, 0, fuzzOps + fuzzBatch, 1, 1, 11, fuzzUnsubscribe, 1, fuzzOps + fuzzStats, fuzzProfilesOp, fuzzOps + fuzzTruncated, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		runFuzzSession(t, decodeSession(data))
	})
}

// sessionModel is what the server should hold and owe after each reply.
type sessionModel struct {
	live map[string]liveSub
	seq  uint64 // the last sequence number handed out
	// owed holds, per accepted event, its vector and the ids to be notified.
	owed map[uint64]*owedEvent
}

// liveSub is a live subscription: its connection and index in fuzzProfiles.
type liveSub struct{ conn, profile int }

type owedEvent struct {
	vals []float64
	to   map[string]int  // id → the connection owed its notification
	done map[string]bool // id → notified yet
}

func fuzzValid(v []float64) bool {
	return len(v) == 2 && v[0] >= -30 && v[0] <= 50 && v[1] >= 0 && v[1] <= 100
}

// publish books an accepted event and returns how many subscriptions it
// matched.
func (m *sessionModel) publish(v []float64) int {
	m.seq++
	ev := &owedEvent{vals: v, to: make(map[string]int), done: make(map[string]bool)}
	for id, s := range m.live {
		if fuzzProfiles[s.profile].match(v) {
			ev.to[id] = s.conn
		}
	}
	m.owed[m.seq] = ev
	return len(ev.to)
}

// check applies req, sent on connection conn, to the model and compares the
// server's reply with it.
func (m *sessionModel) check(conn int, req Request, resp Response) error {
	want := func(typ MsgType) error {
		if resp.Type != typ || resp.Op != req.Op {
			return fmt.Errorf("reply %+v, want type %s op %s", resp, typ, req.Op)
		}
		return nil
	}
	switch req.Op {
	case OpSubscribe:
		p := slices.IndexFunc(fuzzProfiles, func(q fuzzProfile) bool { return q.expr == req.Profile })
		if _, dup := m.live[req.ID]; dup || fuzzProfiles[p].match == nil {
			return want(MsgError)
		}
		m.live[req.ID] = liveSub{conn, p}
		return want(MsgOK)
	case OpUnsubscribe:
		if s, ok := m.live[req.ID]; !ok || s.conn != conn {
			return want(MsgError)
		}
		delete(m.live, req.ID)
		return want(MsgOK)
	case OpPublish:
		if req.Vals == nil || !fuzzValid(req.Vals) {
			return want(MsgError)
		}
		if n := m.publish(req.Vals); resp.Matched != n {
			return fmt.Errorf("publish %v matched %d, the live subscriptions %d", req.Vals, resp.Matched, n)
		}
		return want(MsgOK)
	case OpPublishBatch:
		if req.Batch == nil || slices.ContainsFunc(req.Batch, func(v []float64) bool { return !fuzzValid(v) }) {
			return want(MsgError)
		}
		total := 0
		for i, v := range req.Batch {
			n := m.publish(v)
			if i >= len(resp.MatchedEach) || resp.MatchedEach[i] != n {
				return fmt.Errorf("batch event %d %v matched %v, the live subscriptions %d", i, v, resp.MatchedEach, n)
			}
			total += n
		}
		if resp.Matched != total || len(resp.MatchedEach) != len(req.Batch) {
			return fmt.Errorf("batch reply %+v, want %d in all over %d events", resp, total, len(req.Batch))
		}
		return want(MsgOK)
	case OpPing:
		return want(MsgPong)
	case OpSchema:
		if len(resp.Attributes) != 2 {
			return fmt.Errorf("schema %+v", resp.Attributes)
		}
		return want(MsgSchema)
	case OpStats:
		if resp.Stats == nil || resp.Stats.Subscriptions != len(m.live) || resp.Stats.Published != m.seq {
			return fmt.Errorf("stats %+v, want %d subscriptions and %d published", resp.Stats, len(m.live), m.seq)
		}
		return want(MsgStats)
	case OpQuench:
		if req.Attr == "nosuch" {
			return want(MsgError)
		}
		return want(MsgOK)
	case OpProfiles:
		var got []string
		for _, p := range resp.Profiles {
			got = append(got, p.ID)
		}
		var live []string
		for id := range m.live {
			live = append(live, id)
		}
		sort.Strings(got)
		sort.Strings(live)
		if !slices.Equal(got, live) {
			return fmt.Errorf("profiles %v, live %v", got, live)
		}
		return want(MsgOK)
	default: // a hello, an unknown op
		return want(MsgError)
	}
}

// notified books one notification frame that connection conn received
// against what its event owes that connection.
func (m *sessionModel) notified(conn int, resp Response) error {
	ev := m.owed[resp.Seq]
	if ev == nil {
		return fmt.Errorf("notification of seq %d, which no accepted event has", resp.Seq)
	}
	if !slices.Equal(resp.Vals, ev.vals) {
		return fmt.Errorf("seq %d notified as %v, published as %v", resp.Seq, resp.Vals, ev.vals)
	}
	for _, id := range resp.IDs {
		to, owed := ev.to[id]
		if !owed || to != conn || ev.done[id] {
			return fmt.Errorf("connection %d: seq %d %v names %q: owed %v (to connection %d), already named %v",
				conn, resp.Seq, ev.vals, id, owed, to, ev.done[id])
		}
		ev.done[id] = true
	}
	return nil
}

func runFuzzSession(t *testing.T, steps []fuzzStep) {
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
	defer func() {
		srv.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		brk.Close()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine() - before; n > 0 {
			t.Errorf("%d goroutines left after Close", n)
		}
	}()

	var conns [fuzzConns]net.Conn
	var ins [fuzzConns]*inbound
	for c := range conns {
		conn, rd := upgradeRaw(t, ln.Addr().String())
		defer func() { _ = conn.Close() }()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		conns[c], ins[c] = conn, &inbound{rd: rd}
	}
	m := &sessionModel{live: make(map[string]liveSub), owed: make(map[uint64]*owedEvent)}
	// next reads connection c's frames up to its next reply, keeping the
	// notifications on the way (an event's may overtake the reply that
	// accepted it); at the end of the stream it returns io.EOF.
	var notes [fuzzConns][]Response
	next := func(c int) (uint32, Response, error) {
		for {
			cid, resp, err := readResponse(ins[c])
			if err != nil || resp.Type != MsgNotification {
				return cid, resp, err
			}
			// The vector and the ids alias the read scratch.
			resp.Vals, resp.IDs = slices.Clone(resp.Vals), slices.Clone(resp.IDs)
			notes[c] = append(notes[c], resp)
		}
	}
	// Each run of one connection's steps goes out in one write; its replies
	// come back before the next run, of the other connection, starts.
	for lo := 0; lo < len(steps); {
		c, hi := steps[lo].conn, lo
		var out []byte
		for ; hi < len(steps) && steps[hi].conn == c; hi++ {
			if steps[hi].raw != nil {
				out = append(out, steps[hi].raw...)
				continue
			}
			if out, err = appendRequest(out, uint32(hi+1), steps[hi].req); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conns[c].Write(out); err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi && steps[i].raw == nil; i++ {
			st := steps[i]
			cid, resp, err := next(c)
			if err != nil {
				t.Fatalf("step %d %s on connection %d: no reply: %v", i, st.req.Op, c, err)
			}
			if cid != uint32(i+1) {
				t.Fatalf("step %d %s on connection %d: reply under cid %d, want %d", i, st.req.Op, c, cid, i+1)
			}
			if err := m.check(c, st.req, resp); err != nil {
				t.Fatalf("step %d %s on connection %d: %v", i, st.req.Op, c, err)
			}
		}
		lo = hi
	}
	// Whatever follows a connection's last reply is notifications, then the
	// close: the server's after a framing error, or the one that answers
	// this side's.
	for c, conn := range conns {
		_ = conn.(*net.TCPConn).CloseWrite()
		if cid, resp, err := next(c); !errors.Is(err, io.EOF) {
			t.Fatalf("connection %d after the last reply: cid %d %+v, %v; want the connection closed", c, cid, resp, err)
		}
	}
	if n := brk.Stats().Subscriptions; n != 0 {
		t.Errorf("%d subscriptions outlive their connections", n)
	}
	for c := range notes {
		for _, resp := range notes[c] {
			if err := m.notified(c, resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	for seq, ev := range m.owed {
		for id, c := range ev.to {
			if !ev.done[id] {
				t.Errorf("seq %d %v never notified %q to connection %d", seq, ev.vals, id, c)
			}
		}
	}
}
