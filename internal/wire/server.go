package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// Overlay is the federation integration surface: when installed, the server
// hands peer connections (a hello naming a node) over to it and mirrors local
// registration and publish activity into it, so profiles propagate to peer
// daemons and events cross a TCP link only when that link's routing filter
// matches.
type Overlay interface {
	// HandlePeer owns a connection whose hello named a node and advertised
	// protocol v2. It runs the peer link until the connection drops and must
	// tolerate conn being closed concurrently by Server.Close. rd is the
	// connection's buffered reader (already past the hello line).
	HandlePeer(conn net.Conn, rd *bufio.Reader, hello Request)
	// ProfileAdded announces a locally subscribed profile to the overlay.
	ProfileAdded(p *predicate.Profile)
	// ProfileRemoved withdraws a locally removed profile from the overlay.
	ProfileRemoved(id predicate.ID)
	// EventPublished offers a locally published event for forwarding over
	// matching peer links. The overlay must not retain ev.Vals after
	// returning: the publish path hands it the connection's reused read
	// scratch (encode synchronously, enqueue bytes).
	EventPublished(ev event.Event)
	// Stats reports the overlay node name, live peer link count and the
	// forwarded/early-rejected counters.
	Stats() (node string, peers int, forwarded, filtered uint64)
}

// Server serves the wire protocol over TCP for one broker instance. Every
// connection owns its subscriptions: when the connection drops, its profiles
// are removed from the filter tree.
type Server struct {
	brk      *broker.Broker
	defaults *event.Defaults
	overlay  Overlay
	ln       net.Listener
	log      *log.Logger

	// Wire-level counters (stats frame): bytes and events received on
	// publish/publish_batch frames, and frames observed queued behind the
	// one being served (pipelining depth > 1).
	wireBytes       atomic.Uint64
	wireEvents      atomic.Uint64
	framesPipelined atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a broker. logger may be nil to discard logs.
func NewServer(brk *broker.Broker, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	return &Server{brk: brk, log: logger, conns: make(map[net.Conn]struct{})}
}

// SetDefaults installs opt-in fill-ins for event attributes omitted from
// publish and publish_batch frames (nil restores the strict default: every
// attribute required). Call before Serve.
func (s *Server) SetDefaults(d *event.Defaults) { s.defaults = d }

// SetOverlay federates the server: peer hellos are handed to o, and local
// subscribe/unsubscribe/publish activity is mirrored into it. Call before
// Serve.
func (s *Server) SetOverlay(o Overlay) { s.overlay = o }

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Serve accepts connections on ln until the context is canceled or Close is
// called. It blocks; run it from the caller's goroutine of choice.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	// The watcher joins the WaitGroup under s.mu: Close sets closed under the
	// same lock before it calls Wait, so Add can never race that Wait.
	s.wg.Add(1)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer s.wg.Done()
		select {
		case <-ctx.Done():
			_ = ln.Close()
		case <-done:
		}
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			// Release the watcher before joining the WaitGroup it belongs to:
			// without the close, a Close() that was not preceded by a context
			// cancel would leave the watcher parked and this Wait (and the
			// one inside Close) deadlocked.
			close(done)
			if ctx.Err() != nil || s.isClosed() {
				s.wg.Wait()
				return nil
			}
			s.wg.Wait()
			return fmt.Errorf("wire: accept: %w", err)
		}
		if !s.track(conn) {
			// Close ran between Accept and here: the connection would escape
			// the teardown (and its wg.Add would race Close's Wait), so drop
			// it instead of serving it.
			_ = conn.Close()
			continue
		}
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a connection and joins the handler WaitGroup, refusing
// when the server is already closing (the caller must then drop the conn).
// Registration, the closed check and wg.Add happen under one lock so a
// concurrent Close either sees the connection (and closes it) or prevents it.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// Close stops accepting, disconnects all clients and waits for handler
// goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// writeTimeout bounds one write to a client connection (federation's
// WriteTimeout default). A client that stops reading cannot park its
// connection's writers forever: when the deadline expires the connection
// closes and its subscriptions are torn down.
const writeTimeout = 10 * time.Second

// helloTimeout bounds the wait for a connection's hello line, so a client
// that connects and never speaks does not hold its goroutine and socket until
// Close. A variable only so that a test can shorten it.
var helloTimeout = writeTimeout

// notifyQueue is a connection's notification budget: how far the broker may
// run ahead of the connection's forwarder before it drops the newest — one
// buffer however many subscriptions the connection holds, sized like the burst
// a client's Notifications() absorbs.
const notifyQueue = 256

// connState tracks one client connection's subscriptions and synchronized
// writer.
type connState struct {
	conn net.Conn
	subs map[string]*broker.Subscription
	evs  []event.Event // publish_batch scratch, owned by the request loop
	rbuf []byte        // reply build buffer, owned by the request loop
	// queue is the one channel every subscription of the connection delivers
	// into, created with the first of them; fwd closes when its forwarder —
	// the only goroutine a connection starts — has exited.
	queue *broker.Queue
	fwd   chan struct{}
	mu    sync.Mutex // serializes writes: replies and notification bursts
}

// reply writes one reply, paired with its request's correlation id.
func (cs *connState) reply(cid uint32, resp Response) error {
	b, err := appendResponse(cs.rbuf[:0], cid, resp)
	if err != nil {
		return err
	}
	cs.rbuf = b
	return cs.send(b)
}

// send puts encoded messages on the wire. It holds the server's only write:
// a failed or timed-out write closes the connection, which ends the request
// loop and tears the subscriptions down.
func (cs *connState) send(b []byte) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	_ = cs.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	//genas:allow locksafe cs.mu exists to serialize message writes on the shared conn; nothing else is ever taken under it
	_, err := cs.conn.Write(b)
	if err != nil {
		_ = cs.conn.Close()
	}
	return err
}

// forward is the connection's one notification writer. It blocks for a
// notification and sends it together with whatever else is queued at that
// moment (at most notifyQueue: nobody else receives from q, so those receives
// cannot block) in one write: a burst costs one wake-up and one syscall.
// Consecutive notifications of one event (one Seq) become one frame listing
// their ids — the only grouping there is.
func (cs *connState) forward(q <-chan broker.Notification, logger *log.Logger) {
	defer close(cs.fwd)
	var buf []byte
	var ids []string
	for n := range q {
		buf = buf[:0]
		for rest := len(q); ; rest-- {
			ids = append(ids, string(n.Profile))
			next := n
			if rest > 0 {
				next = <-q
			}
			if rest == 0 || next.Event.Seq != n.Event.Seq {
				resp := Response{Type: MsgNotification, Seq: n.Event.Seq, Vals: n.Event.Vals, IDs: ids}
				b, err := appendResponse(buf, 0, resp)
				if err != nil {
					logger.Printf("wire: connection %s: notification %d: %v", cs.conn.RemoteAddr(), resp.Seq, err)
				} else {
					buf = b
				}
				ids = ids[:0]
			}
			if rest == 0 {
				break
			}
			n = next
		}
		if cs.send(buf) != nil {
			return
		}
	}
}

// handle runs one connection. Its first line must be a hello advertising
// protocol v2: a client's is answered with the schema and the session runs on
// frames, a peer's is handed to the overlay. Anything else is answered with
// one JSON error line, and the connection closes.
func (s *Server) handle(conn net.Conn) {
	defer s.untrack(conn)
	defer func() { _ = conn.Close() }()
	rd := bufio.NewReaderSize(conn, 64*1024)
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	line, err := ReadLine(rd)
	if err != nil {
		if err != io.EOF {
			s.log.Printf("wire: connection %s: %v", conn.RemoteAddr(), err)
		}
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	hello, err := DecodeRequest(line)
	switch {
	case err != nil || hello.Op != OpHello || hello.Proto < int(ProtoV2):
		s.refuse(conn, hello.Op, `protocol v2 required: the first line must be {"op":"hello","proto":2}`)
	case hello.Node == "":
		s.session(conn, rd)
	case s.overlay == nil:
		s.refuse(conn, hello.Op, "daemon is not federated")
	default:
		s.overlay.HandlePeer(conn, rd, hello)
	}
}

// refuse answers a connection's first line with one JSON error line.
func (s *Server) refuse(conn net.Conn, op Op, msg string) {
	s.log.Printf("wire: connection %s refused: %s", conn.RemoteAddr(), msg)
	b, _ := EncodeLine(Response{Type: MsgError, Op: op, Error: msg})
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, _ = conn.Write(b)
}

// session serves a client after its hello: confirm it with the schema, from
// which the client builds its slot table, then read a request frame, dispatch
// it and answer until the connection drops.
func (s *Server) session(conn net.Conn, rd *bufio.Reader) {
	cs := &connState{conn: conn, subs: make(map[string]*broker.Subscription)}
	defer func() {
		// Tear down this connection's subscriptions, then wait for its
		// forwarder: the queue closes with its last reference, which ends it
		// once it has written what was still queued.
		for id := range cs.subs {
			if s.brk.Unsubscribe(predicate.ID(id)) == nil && s.overlay != nil {
				s.overlay.ProfileRemoved(predicate.ID(id))
			}
		}
		if cs.queue != nil {
			cs.queue.Close()
			<-cs.fwd
		}
	}()

	confirm, _ := EncodeLine(Response{Type: MsgOK, Op: OpHello, Proto: int(ProtoV2), Attributes: schemaPayload(s.brk.Schema())})
	if cs.send(confirm) != nil {
		return
	}
	in := &inbound{rd: rd}
	for {
		cid, req, err := readRequest(in)
		if err != nil {
			// The stream position is lost (or the client is gone): the
			// connection closes and the deferred teardown drops its
			// subscriptions.
			if err != io.EOF {
				s.log.Printf("wire: connection %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if in.rd.Buffered() > 0 {
			s.framesPipelined.Add(1)
		}
		resp, err := s.dispatch(cs, in, req)
		if err != nil {
			resp = Response{Type: MsgError, Op: req.Op, Error: err.Error()}
		}
		if cs.reply(cid, resp) != nil {
			return
		}
	}
}

// schemaPayload renders the broker schema as wire attribute descriptors (the
// schema response and the hello's answer share it: slot i on the wire is
// attribute i in this list).
func schemaPayload(sch *schema.Schema) []AttrPayload {
	attrs := make([]AttrPayload, sch.N())
	for i := 0; i < sch.N(); i++ {
		a := sch.At(i)
		attrs[i] = AttrPayload{
			Name:   a.Name,
			Kind:   a.Domain.Kind().String(),
			Lo:     a.Domain.Lo(),
			Hi:     a.Domain.Hi(),
			Labels: a.Domain.Labels(),
		}
	}
	return attrs
}

// dispatch executes one request and returns its reply; a returned error is
// reported to the client and the connection lives on.
func (s *Server) dispatch(cs *connState, in *inbound, req Request) (Response, error) {
	sch := s.brk.Schema()
	switch req.Op {
	case OpPing:
		return Response{Type: MsgPong, Op: req.Op}, nil

	case OpHello:
		return Response{}, errors.New("hello must be the connection's first line")

	case OpSchema:
		return Response{Type: MsgSchema, Op: req.Op, Attributes: schemaPayload(sch)}, nil

	case OpSubscribe:
		if req.ID == "" {
			return Response{}, errors.New("subscribe: missing id")
		}
		p, err := predicate.Parse(sch, predicate.ID(req.ID), req.Profile)
		if err != nil {
			return Response{}, err
		}
		p.Priority = req.Priority
		if cs.queue == nil {
			q, err := s.brk.NewQueue(notifyQueue)
			if err != nil {
				return Response{}, err
			}
			cs.queue, cs.fwd = q, make(chan struct{})
			go cs.forward(q.C(), s.log)
		}
		sub, err := cs.queue.Subscribe(p)
		if err != nil {
			return Response{}, err
		}
		cs.subs[req.ID] = sub
		if s.overlay != nil {
			s.overlay.ProfileAdded(p)
		}
		return Response{Type: MsgOK, Op: req.Op, Profile: req.ID}, nil

	case OpUnsubscribe:
		if _, ok := cs.subs[req.ID]; !ok {
			return Response{}, fmt.Errorf("unsubscribe: %s not subscribed on this connection", req.ID)
		}
		delete(cs.subs, req.ID)
		if err := s.brk.Unsubscribe(predicate.ID(req.ID)); err != nil {
			return Response{}, err
		}
		if s.overlay != nil {
			s.overlay.ProfileRemoved(predicate.ID(req.ID))
		}
		return Response{Type: MsgOK, Op: req.Op, Profile: req.ID}, nil

	case OpPublish:
		s.wireBytes.Add(uint64(in.size))
		s.wireEvents.Add(1)
		// A decoded vector is the connection's read scratch; the broker
		// copies it on match and the overlay encodes synchronously.
		vals, err := req.EventVals(sch, s.defaults)
		if err != nil {
			return Response{}, err
		}
		matched, err := s.brk.PublishValues(vals)
		if err != nil {
			return Response{}, err
		}
		if s.overlay != nil {
			s.overlay.EventPublished(event.Event{Vals: vals})
		}
		return Response{Type: MsgOK, Op: req.Op, Matched: matched}, nil

	case OpPublishBatch:
		n := max(len(req.Batch), len(req.Events))
		s.wireBytes.Add(uint64(in.size))
		s.wireEvents.Add(uint64(max(1, n)))
		if n == 0 {
			return Response{}, errors.New("publish_batch: no events")
		}
		cs.evs = cs.evs[:0]
		for i := 0; i < n; i++ {
			one := Request{}
			if req.Batch != nil {
				one.Vals = req.Batch[i]
			} else {
				one.Event = req.Events[i]
			}
			vals, err := one.EventVals(sch, s.defaults)
			if err != nil {
				return Response{}, fmt.Errorf("event %d: %w", i, err)
			}
			cs.evs = append(cs.evs, event.Event{Vals: vals})
		}
		counts, err := s.brk.PublishBatch(cs.evs)
		if err != nil {
			return Response{}, err
		}
		total := 0
		for i, c := range counts {
			total += c
			if s.overlay != nil {
				s.overlay.EventPublished(cs.evs[i])
			}
		}
		return Response{Type: MsgOK, Op: req.Op, Matched: total, MatchedEach: counts}, nil

	case OpQuench:
		i, err := sch.Index(req.Attr)
		if err != nil {
			return Response{}, err
		}
		q := s.brk.Quenched(i, schema.Closed(req.Lo, req.Hi))
		return Response{Type: MsgOK, Op: req.Op, Quenched: q}, nil

	case OpProfiles:
		var payload []ProfilePayload
		for _, p := range s.brk.Engine().Profiles() {
			payload = append(payload, ProfilePayload{
				ID:       string(p.ID),
				Expr:     p.Render(sch),
				Priority: p.Priority,
			})
		}
		return Response{Type: MsgOK, Op: req.Op, Profiles: payload}, nil

	case OpStats:
		st := s.brk.Stats()
		payload := &StatsPayload{
			Subscriptions: st.Subscriptions,
			Published:     st.Published,
			Delivered:     st.Delivered,
			Dropped:       st.Dropped,
			FilterEvents:  st.FilterEvents,
			FilterOps:     st.FilterOps,
			MeanOps:       st.MeanOps,
		}
		if a := s.brk.Adaptor(); a != nil {
			payload.Restructures = a.Restructures()
		}
		ag := st.Aggregation
		payload.Aggregated = true
		payload.CanonicalNodes = ag.Nodes
		payload.CanonicalRoots = ag.Roots
		payload.PosetDepth = ag.MaxDepth
		payload.ProfilesPerCanonical = ag.Ratio()
		if s.overlay != nil {
			payload.Node, payload.Peers, payload.Forwarded, payload.Filtered = s.overlay.Stats()
		}
		if we := s.wireEvents.Load(); we > 0 {
			payload.BytesPerEventWire = float64(s.wireBytes.Load()) / float64(we)
		}
		payload.FramesPipelined = s.framesPipelined.Load()
		return Response{Type: MsgStats, Op: req.Op, Stats: payload}, nil

	default:
		return Response{}, fmt.Errorf("unknown op %q", req.Op)
	}
}
