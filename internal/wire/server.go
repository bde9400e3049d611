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
// matches. A peer link sends through an Outbox like a client session's: every
// connection, client or peer, runs one reader and one writer.
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
	// DroppedForwards counts the forwards a peer link's full outbox refused.
	DroppedForwards() uint64
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
		logger = log.New(io.Discard, "", 0)
	}
	return &Server{brk: brk, log: logger, conns: make(map[net.Conn]struct{})}
}

// SetDefaults installs opt-in fill-ins for event attributes a client's
// publish omits (nil restores the strict default: every attribute required).
// The server announces them in the hello's answer and the schema reply, and
// the client fills them in: every event reaches the server as a full vector.
// Call before Serve.
func (s *Server) SetDefaults(d *event.Defaults) { s.defaults = d }

// SetOverlay federates the server: peer hellos are handed to o, and local
// subscribe/unsubscribe/publish activity is mirrored into it. Call before
// Serve.
func (s *Server) SetOverlay(o Overlay) { s.overlay = o }

// Serve accepts connections on ln until the context is canceled or Close is
// called, then closes ln and returns nil. It blocks; run it from the caller's
// goroutine of choice. On a server already closed it closes ln at once.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return nil
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

// helloTimeout bounds the wait for a connection's hello line, so a client
// that connects and never speaks does not hold its goroutine and socket until
// Close. A variable only so that a test can shorten it.
var helloTimeout = writeTimeout

// notifyQueue is a connection's notification budget at either end, however
// many subscriptions it holds: how far the broker may run ahead of a
// session's writer, and a client's consumer behind its reader, before the
// newest notification drops.
const notifyQueue = 256

// connState is one client session's state, owned by its request loop. queue
// is the one channel every subscription delivers into, created with the first.
type connState struct {
	out    *Outbox
	subs   map[string]*broker.Subscription
	evs    []event.Event // publish_batch scratch
	counts []int         // and its counts, free again once the reply is encoded
	queue  *broker.Queue
}

// handle runs one connection. Its first line must be a hello advertising
// protocol v2: a client's is answered with the schema and the session runs on
// frames, a peer's is handed to the overlay. Anything else is answered with
// one JSON error line, and the connection closes.
func (s *Server) handle(conn net.Conn) {
	defer s.untrack(conn)
	defer func() { _ = conn.Close() }()
	// The standard 4 KiB reader is enough at any frame size: ReadFrame reads a
	// frame longer than the reader's buffer straight into the connection's
	// payload buffer but for its last 4 KiB less a byte, which it reads
	// through the reader so that a frame behind it is buffered, and ReadLine
	// accumulates a longer hello across it. A larger buffer would buy fewer
	// read calls at 64 KiB a connection.
	rd := bufio.NewReader(conn)
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
		Refuse(conn, hello.Op, `protocol v2 required: the first line must be {"op":"hello","proto":2}`, s.log)
	case hello.Node == "":
		s.session(conn, rd)
	case s.overlay == nil:
		Refuse(conn, hello.Op, "daemon is not federated", s.log)
	default:
		s.overlay.HandlePeer(conn, rd, hello)
	}
}

// Refuse logs a refused connection and answers its first line with one JSON
// error line, written (or failed) by an outbox of its own before it returns.
func Refuse(conn net.Conn, op Op, msg string, logger *log.Logger) {
	logger.Printf("wire: connection %s refused: %s", conn.RemoteAddr(), msg)
	b, _ := EncodeLine(Response{Type: MsgError, Op: op, Error: msg})
	out := NewOutbox(conn, 0, logger)
	out.Send(b)
	<-out.Close()
}

// session serves a client after its hello: confirm it with the schema, from
// which the client builds its slot table, then read a request frame, dispatch
// it and answer until the connection drops. Every byte it sends goes through
// the connection's outbox, whose writer is the session's one other goroutine.
func (s *Server) session(conn net.Conn, rd *bufio.Reader) {
	cs := &connState{out: NewOutbox(conn, notifyQueue, s.log), subs: make(map[string]*broker.Subscription)}
	defer func() {
		// Tear down the subscriptions, then wait for the writer: the queue
		// closes with its last reference, and the writer drains it.
		for id := range cs.subs {
			if s.brk.Unsubscribe(predicate.ID(id)) == nil && s.overlay != nil {
				s.overlay.ProfileRemoved(predicate.ID(id))
			}
		}
		if cs.queue != nil {
			cs.queue.Close()
		}
		<-cs.out.Close()
	}()

	confirm, _ := EncodeLine(Response{Type: MsgOK, Op: OpHello, Proto: int(ProtoV2), Attributes: s.schemaPayload()})
	cs.out.Send(confirm)
	in := &inbound{rd: rd}
	for {
		cid, req, err := readRequest(in)
		if err != nil {
			// The stream position is lost, or the client is gone: the
			// deferred teardown drops the subscriptions.
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
		if cs.out.reply(cid, resp) != nil {
			return
		}
	}
}

// schemaPayload renders the broker schema and the defaults as wire attribute
// descriptors (the schema response and the hello's answer share it: slot i on
// the wire is attribute i in this list).
func (s *Server) schemaPayload() []AttrPayload {
	sch := s.brk.Schema()
	vals, filled := make([]float64, sch.N()), make([]bool, sch.N())
	s.defaults.Fill(vals, filled)
	attrs := make([]AttrPayload, sch.N())
	for i := range attrs {
		a := sch.At(i)
		attrs[i] = AttrPayload{
			Name:   a.Name,
			Kind:   a.Domain.Kind().String(),
			Lo:     a.Domain.Lo(),
			Hi:     a.Domain.Hi(),
			Labels: a.Domain.Labels(),
		}
		if filled[i] {
			attrs[i].Default = &vals[i]
		}
	}
	return attrs
}

// errVectorsOnly answers a publish that came as JSON, the spelling of
// clients that predate the announced defaults.
var errVectorsOnly = errors.New("events travel as vectors: publish and publish_batch take binary frames")

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
		return Response{Type: MsgSchema, Op: req.Op, Attributes: s.schemaPayload()}, nil

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
			if cs.queue, err = s.brk.NewQueue(notifyQueue); err != nil {
				return Response{}, err
			}
			cs.out.notify(cs.queue.C())
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
		if req.Vals == nil {
			return Response{}, errVectorsOnly
		}
		s.wireBytes.Add(uint64(in.size))
		s.wireEvents.Add(1)
		// A decoded vector is the connection's read scratch; the broker
		// validates it and copies it on match, and the overlay encodes
		// synchronously.
		matched, err := s.brk.PublishValues(req.Vals)
		if err != nil {
			return Response{}, err
		}
		if s.overlay != nil {
			s.overlay.EventPublished(event.Event{Vals: req.Vals})
		}
		return Response{Type: MsgOK, Op: req.Op, Matched: matched}, nil

	case OpPublishBatch:
		if req.Batch == nil {
			return Response{}, errVectorsOnly
		}
		s.wireBytes.Add(uint64(in.size))
		s.wireEvents.Add(uint64(len(req.Batch)))
		cs.evs = cs.evs[:0]
		for _, vals := range req.Batch {
			cs.evs = append(cs.evs, event.Event{Vals: vals})
		}
		// The broker validates every event and names the one it refuses.
		var err error
		if cs.counts, err = s.brk.PublishBatchAppend(cs.counts[:0], cs.evs); err != nil {
			return Response{}, err
		}
		total := 0
		for i, c := range cs.counts {
			total += c
			if s.overlay != nil {
				s.overlay.EventPublished(cs.evs[i])
			}
		}
		return Response{Type: MsgOK, Op: req.Op, Matched: total, MatchedEach: cs.counts}, nil

	case OpQuench:
		i, err := sch.Index(req.Attr)
		if err != nil {
			return Response{}, err
		}
		q := s.brk.Quenched(i, schema.Closed(req.Lo, req.Hi))
		return Response{Type: MsgOK, Op: req.Op, Quenched: q}, nil

	case OpProfiles:
		var payload []ProfilePayload
		for _, p := range s.brk.Profiles() {
			payload = append(payload, ProfilePayload{
				ID:       string(p.ID),
				Expr:     p.Render(sch),
				Priority: p.Priority,
			})
		}
		return Response{Type: MsgOK, Op: req.Op, Profiles: payload}, nil

	case OpStats:
		st := s.brk.Stats()
		if s.overlay != nil {
			st.Node, st.Peers, st.Forwarded, st.Filtered = s.overlay.Stats()
			st.DroppedForwards = s.overlay.DroppedForwards()
		}
		if we := s.wireEvents.Load(); we > 0 {
			st.BytesPerEventWire = float64(s.wireBytes.Load()) / float64(we)
		}
		st.FramesPipelined = s.framesPipelined.Load()
		return Response{Type: MsgStats, Op: req.Op, Stats: &st}, nil

	default:
		return Response{}, fmt.Errorf("unknown op %q", req.Op)
	}
}
