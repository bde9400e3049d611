// Package federation takes the Siena-style overlay of internal/routing over
// the wire: multiple genasd processes form the same acyclic broker topology
// the in-process Network models, speaking the wire protocol's peer messages
// over TCP: one hello line each way, then route_add/route_withdraw and
// forward frames.
//
// Each daemon keeps one peer link per neighbor and one routing.Table, the
// same state machine the in-process overlay runs: per link it records the
// profiles subscribed in that neighbor's direction and runs a filter engine
// over the uncovered ones, so an event crosses a TCP link only when that
// link's engine matches it, and "unnecessary event information is rejected
// as early as possible" (paper §5) at every hop. This package decides nothing
// about routes: it is the transport (handshake, per-link outbox and writer,
// reconnect supervision) that feeds peer messages to the table and sends the
// messages the table returns. An event is encoded once and copied into the
// outbox of every link that accepts it; a link's writer sends whatever has
// gathered there in one write.
//
// Link lifecycle: the dialing side owns reconnection — when a link drops,
// its routes are withdrawn from the remaining links, and on reconnect the
// full route set (local profiles plus routes learned from other peers) is
// replayed, so the overlay converges without a global coordinator. The
// accepting side is handed peer connections by the wire server (a hello naming
// a node) and simply tears the link down when the connection dies.
package federation

import (
	"bufio"
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
	"genas/internal/routing"
	"genas/internal/schema"
	"genas/internal/wire"
)

// Errors reported by the federation layer.
var (
	ErrClosed         = errors.New("federation: closed")
	ErrMissingNode    = errors.New("federation: missing node name")
	ErrSchemaMismatch = errors.New("federation: peer schema does not match")
	ErrSelfPeer       = errors.New("federation: peer announced this daemon's own node name")
)

// Options configure a federated broker node. The per-link filter engines
// inherit the broker's engine configuration, so the paper's tree
// optimizations apply at every hop exactly as in the in-process overlay.
type Options struct {
	// Node is this daemon's name in the overlay (required, unique among
	// neighbors).
	Node string
	// Covering makes RouteCount and the routes counter report only the
	// uncovered routes of a link (on by default in genasd). Every link's
	// filter engine indexes just those whether or not it is set.
	Covering bool
	// DialTimeout bounds one connect+handshake attempt (default 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write; a link that cannot absorb a frame
	// within it is torn down (default 10s).
	WriteTimeout time.Duration
	// RetryMin/RetryMax bound the reconnect backoff of dialed links
	// (defaults 100ms and 3s).
	RetryMin, RetryMax time.Duration
	// Logger receives link lifecycle and protocol diagnostics (nil discards).
	Logger *log.Logger
}

// Fed is one broker's wire-level overlay state: its peer links and the route
// table deciding what crosses them. It implements wire.Overlay, so a
// wire.Server mirrors local subscriptions and publishes into it.
type Fed struct {
	name string
	sch  *schema.Schema
	brk  *broker.Broker
	opts Options
	log  *log.Logger

	// mu guards links and serialises table, which always holds exactly the
	// links of the map. The forward hot path only reads (match + non-blocking
	// enqueue), so it takes the read side and concurrent publishers do not
	// serialize here.
	mu     sync.RWMutex
	links  map[string]*peerLink
	table  *routing.Table
	closed bool
	done   chan struct{} // closed by Close; wakes supervisor backoffs
	wg     sync.WaitGroup

	slowCuts atomic.Uint64 // links cut because their peer could not keep up
}

// peerLink is one TCP link to a neighbor daemon. After the handshake every
// outbound message goes through the outbox, drained by a single writer
// goroutine: message order per link is preserved (route adds and withdrawals
// must not reorder) while no caller ever blocks on peer TCP while holding
// Fed.mu.
type peerLink struct {
	name string
	conn net.Conn
	// The outbox: messages gather in buf until the writer swaps it for its
	// spare and writes them all at once. forwards counts the event frames in
	// buf; cut poisons the link, once (enqueueLocked). wake tells the writer
	// buf is not empty: enqueues happen only under Fed.mu (either side) and
	// close(wake) under its write lock, which is what makes the pair race-free.
	mu       sync.Mutex
	buf      []byte
	forwards int
	cut      bool
	wake     chan struct{}
	wakeOnce sync.Once
}

// closeOut ends the writer, exactly once (dropLink and Close can both reach
// it).
func (l *peerLink) closeOut() { l.wakeOnce.Do(func() { close(l.wake) }) }

// outQueueDepth bounds the forward frames waiting in a link's outbox: deep
// enough to absorb a burst, small enough that a wedged peer is detected by
// overflow rather than unbounded memory. Route messages do not count: they are
// bounded by the route tables they mirror, and a replay must arrive in full
// however large it is.
const outQueueDepth = 1024

// New creates the federation state for a broker. The returned Fed has no
// links yet: install it on the wire server (accept side) and Dial/DialRetry
// peers (dial side).
func New(brk *broker.Broker, opts Options) (*Fed, error) {
	if opts.Node == "" {
		return nil, ErrMissingNode
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	if opts.RetryMin <= 0 {
		opts.RetryMin = 100 * time.Millisecond
	}
	if opts.RetryMax < opts.RetryMin {
		opts.RetryMax = 3 * time.Second
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Fed{
		name:  opts.Node,
		sch:   brk.Schema(),
		brk:   brk,
		opts:  opts,
		log:   logger,
		links: make(map[string]*peerLink),
		// Link engines inherit the broker's measure configuration.
		table: routing.NewTable(brk.Schema(), brk.Engine().Config(), opts.Covering),
		done:  make(chan struct{}),
	}, nil
}

// Node returns this daemon's overlay name.
func (f *Fed) Node() string { return f.name }

// Dial connects to a peer daemon synchronously: connect, handshake, replay
// routes. On success a background supervisor keeps the link alive
// (reconnect with route replay) until Close. Use DialRetry when the peer may
// not be up yet.
func (f *Fed) Dial(addr string) error {
	l, rd, err := f.connect(addr)
	if err != nil {
		return err
	}
	if err := f.attach(l); err != nil {
		_ = l.conn.Close()
		return err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.wg.Add(1)
	f.mu.Unlock()
	go func() {
		defer f.wg.Done()
		f.runLink(l, rd)
		f.supervise(addr)
	}()
	return nil
}

// DialRetry starts a background supervisor that dials addr with backoff
// until it succeeds, then keeps the link alive until Close. Initial
// unavailability of the peer is not an error: route replay on connect makes
// the overlay converge whenever the peer appears.
func (f *Fed) DialRetry(addr string) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.wg.Add(1)
	f.mu.Unlock()
	go func() {
		defer f.wg.Done()
		f.supervise(addr)
	}()
}

// supervise dials addr with backoff, runs the link until it drops, and
// repeats until the federation closes.
func (f *Fed) supervise(addr string) {
	backoff := f.opts.RetryMin
	for {
		if f.isClosed() {
			return
		}
		l, rd, err := f.connect(addr)
		if err == nil {
			err = f.attach(l)
			if err != nil {
				_ = l.conn.Close()
			}
		}
		if err != nil {
			if f.isClosed() {
				return
			}
			f.log.Printf("federation: dial %s: %v (retrying in %v)", addr, err, backoff)
			select {
			case <-f.done:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > f.opts.RetryMax {
				backoff = f.opts.RetryMax
			}
			continue
		}
		backoff = f.opts.RetryMin
		f.runLink(l, rd)
	}
}

func (f *Fed) isClosed() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.closed
}

// connect dials addr and performs the hello handshake, returning the link
// and its buffered reader (positioned after the hello reply). Both hellos
// advertise protocol v2: an acceptor whose reply does not (a daemon from
// before PR 10, or one pinned to v1) fails the dial.
func (f *Fed) connect(addr string) (*peerLink, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", addr, f.opts.DialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: dial %s: %w", addr, err)
	}
	l := f.newLink(conn)
	if err := f.writeHello(conn); err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	rd := bufio.NewReaderSize(conn, 64*1024)
	_ = conn.SetReadDeadline(time.Now().Add(f.opts.DialTimeout))
	line, err := wire.ReadLine(rd)
	if err != nil {
		_ = conn.Close()
		if err == io.EOF {
			err = errors.New("connection closed during handshake")
		}
		return nil, nil, fmt.Errorf("federation: handshake with %s: %w", addr, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	line = append([]byte(nil), line...)
	// The acceptor reports handshake failures as an error response line;
	// responses carry a type field requests never have, so check that first.
	if resp, rerr := wire.DecodeResponse(line); rerr == nil && resp.Type == wire.MsgError {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("federation: peer %s rejected the link: %s", addr, resp.Error)
	}
	reply, err := wire.DecodeRequest(line)
	if err != nil || reply.Op != wire.OpHello {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("federation: handshake with %s: unexpected frame %q", addr, line)
	}
	if reply.Proto < int(wire.ProtoV2) {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("federation: peer %s does not speak protocol v2", addr)
	}
	if err := f.checkHello(reply); err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	l.name = reply.Node
	return l, rd, nil
}

// checkHello validates the peer's identity and schema.
func (f *Fed) checkHello(h wire.Request) error {
	if h.Node == "" {
		return errors.New("federation: hello missing node name")
	}
	if h.Node == f.name {
		return fmt.Errorf("%w: %s", ErrSelfPeer, h.Node)
	}
	if h.Schema != f.sch.String() {
		return fmt.Errorf("%w: local %s, peer %s", ErrSchemaMismatch, f.sch, h.Schema)
	}
	return nil
}

// HandlePeer implements wire.Overlay: it owns an accepted peer connection
// whose hello the server has read. It replies, attaches the link (replaying
// routes toward the peer) and runs the link until the connection drops.
func (f *Fed) HandlePeer(conn net.Conn, rd *bufio.Reader, hello wire.Request) {
	if err := f.checkHello(hello); err != nil {
		if b, encErr := wire.EncodeLine(wire.Response{Type: wire.MsgError, Op: wire.OpHello, Error: err.Error()}); encErr == nil {
			_, _ = conn.Write(b)
		}
		f.log.Printf("federation: rejected peer %s: %v", conn.RemoteAddr(), err)
		return
	}
	l := f.newLink(conn)
	l.name = hello.Node
	if err := f.writeHello(conn); err != nil {
		f.log.Printf("federation: hello reply to %s: %v", hello.Node, err)
		return
	}
	if err := f.attach(l); err != nil {
		f.log.Printf("federation: attach %s: %v", hello.Node, err)
		return
	}
	f.runLink(l, rd)
}

// newLink allocates a link's state for a fresh connection.
func (f *Fed) newLink(conn net.Conn) *peerLink {
	return &peerLink{conn: conn, wake: make(chan struct{}, 1)}
}

// attach registers a live link, starts its writer and sends the route replay
// the table returns for it (see routing.Table.Attach). An existing link with
// the same peer name is displaced: its reader will tear it down, and the
// table withdraws its routes from the remaining links ahead of the replay.
func (f *Fed) attach(l *peerLink) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if old, ok := f.links[l.name]; ok {
		// A reconnect raced the old link's teardown. Closing the conn wakes
		// its reader, whose dropLink is identity-guarded.
		_ = old.conn.Close()
		old.closeOut()
	}
	f.links[l.name] = l
	f.wg.Add(1)
	go f.writeLoop(l)
	f.log.Printf("federation: %s linked to peer %s (%s)", f.name, l.name, l.conn.RemoteAddr())
	f.send(f.table.Attach(l.name, f.brk.Engine().Profiles()))
	return nil
}

// runLink consumes peer frames until the connection drops, then tears the
// link down (withdrawing its routes from the remaining links). The read
// scratch is reused across frames — an inbound forward is decoded, matched
// locally and re-forwarded without allocating on the miss path. A frame that
// does not decode, or is not a peer frame, is logged and skipped; a framing
// error ends the link.
func (f *Fed) runLink(l *peerLink, rd *bufio.Reader) {
	var buf []byte
	var vals []float64
	for {
		typ, payload, err := wire.ReadFrame(rd, &buf)
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			f.dropLink(l, err)
			return
		}
		if vals, err = f.handleFrame(l, typ, payload, vals); err != nil {
			f.log.Printf("federation: frame 0x%02x from %s: %v", typ, l.name, err)
		}
	}
}

// handleFrame processes one peer frame; vals is the forward scratch, returned
// for reuse. A forward is validated like any published event, delivered
// locally on the broker's value path (the vector is copied only on match)
// and re-forwarded over the other matching links.
func (f *Fed) handleFrame(l *peerLink, typ byte, payload []byte, vals []float64) ([]float64, error) {
	switch typ {
	case wire.FrameRouteAdd:
		id, expr, priority, err := wire.DecodeRouteAddFrame(payload)
		if err != nil {
			return vals, err
		}
		p, err := predicate.Parse(f.sch, predicate.ID(id), expr)
		if err != nil {
			return vals, fmt.Errorf("route_add %q: %w", id, err)
		}
		p.Priority = priority
		f.routeChanged(l, routing.Msg{ID: p.ID, Profile: p})
	case wire.FrameRouteWithdraw:
		id, err := wire.DecodeRouteWithdrawFrame(payload)
		if err != nil {
			return vals, err
		}
		f.routeChanged(l, routing.Msg{ID: predicate.ID(id)})
	case wire.FrameForward:
		vals, err := wire.DecodeForwardFrame(payload, vals)
		if err == nil {
			err = event.Validate(f.sch, vals)
		}
		if err != nil {
			return vals, err
		}
		if _, err := f.brk.PublishValues(vals); err != nil && !errors.Is(err, broker.ErrClosed) {
			f.log.Printf("federation: local delivery of forward from %s: %v", l.name, err)
		}
		f.forward(vals, l.name)
		return vals, nil
	default:
		return vals, errors.New("not a peer frame")
	}
	return vals, nil
}

// routeChanged hands a route announcement (m.Profile set) or withdrawal that
// arrived over l to the table and sends the re-announcements it returns.
// Identity-guarded: a frame still buffered on a displaced link must not
// touch its successor's routes.
func (f *Fed) routeChanged(l *peerLink, m routing.Msg) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.links[l.name] != l {
		return
	}
	if m.Profile != nil {
		f.send(f.table.Announce(l.name, m.Profile))
	} else {
		f.send(f.table.Withdraw(l.name, m.ID))
	}
}

// dropLink removes a dead link and withdraws its routes from the remaining
// links. Identity-guarded: a link displaced by a reconnect does not tear
// down its successor's routes.
func (f *Fed) dropLink(l *peerLink, cause error) {
	_ = l.conn.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.links[l.name] != l {
		return
	}
	delete(f.links, l.name)
	l.closeOut()
	if cause == nil {
		cause = errors.New("peer disconnected")
	}
	f.log.Printf("federation: link to %s down: %v", l.name, cause)
	f.send(f.table.Detach(l.name))
}

// ProfileAdded implements wire.Overlay: announce a local subscription to
// every peer.
func (f *Fed) ProfileAdded(p *predicate.Profile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.send(f.table.Announce(routing.Local, p))
}

// ProfileRemoved implements wire.Overlay: withdraw a local subscription from
// every peer.
func (f *Fed) ProfileRemoved(id predicate.ID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.send(f.table.Withdraw(routing.Local, id))
}

// EventPublished implements wire.Overlay: offer a locally published event to
// every link whose routing filter matches it. The vector is read only
// during the call (matching plus synchronous encode), never retained — the
// server's publish path hands it a connection's reused read scratch.
func (f *Fed) EventPublished(ev event.Event) { f.forward(ev.Vals, routing.Local) }

// forward sends an event vector over every link the table accepts it for
// (never the one it arrived on). The whole path takes only the read lock:
// matching is lock-free inside the link engines, an outbox has its own mutex
// and closeOut runs only under the write lock, so concurrent publishers of a
// federated broker never serialize on the overlay state and a link found here
// cannot lose its writer mid-enqueue. The event is encoded once, into pooled
// scratch, and copied into the outbox of every accepting link.
func (f *Fed) forward(vals []float64, from string) {
	var buf [8]string // keeps the usual fan-out off the heap
	f.mu.RLock()
	defer f.mu.RUnlock()
	targets, err := f.table.Route(vals, from, buf[:0])
	if err != nil {
		f.log.Printf("federation: forward: %v", err)
	}
	if len(targets) == 0 {
		return // most events at a leaf, and every filtered one
	}
	sc := fwdPool.Get().(*fwdScratch)
	defer fwdPool.Put(sc)
	sc.enc = wire.AppendForwardFrame(sc.enc[:0], vals)
	for _, name := range targets {
		f.enqueueLocked(f.links[name], sc.enc, true)
	}
}

// fwdScratch holds one event's encoding, however many links it goes out on;
// pooled, so steady-state forwarding grows no buffer.
type fwdScratch struct{ enc []byte }

var fwdPool = sync.Pool{New: func() any { return new(fwdScratch) }}

// writeHello writes this daemon's hello line directly on a connection —
// handshake only, before the link's writer goroutine exists.
func (f *Fed) writeHello(conn net.Conn) error {
	b, err := wire.EncodeLine(wire.Request{Op: wire.OpHello, Node: f.name, Schema: f.sch.String(), Proto: int(wire.ProtoV2)})
	if err != nil {
		return err
	}
	_ = conn.SetWriteDeadline(time.Now().Add(f.opts.WriteTimeout))
	if _, err := conn.Write(b); err != nil {
		return err
	}
	return nil
}

// writeLoop is the link's single writer: woken when the outbox holds
// something, it swaps the outbox for its spare buffer and writes everything
// that gathered in one conn.Write, so enqueuers (who hold Fed.mu) never block
// on peer TCP. A write failure closes the conn, which makes the link's reader
// tear the link down; what is queued until then is dropped, not retried.
func (f *Fed) writeLoop(l *peerLink) {
	defer f.wg.Done()
	var spare []byte
	broken := false
	for range l.wake {
		l.mu.Lock()
		b := l.buf
		l.buf, l.forwards = spare[:0], 0
		l.mu.Unlock()
		spare = b
		if len(b) == 0 || broken {
			continue
		}
		_ = l.conn.SetWriteDeadline(time.Now().Add(f.opts.WriteTimeout))
		if _, err := l.conn.Write(b); err != nil {
			f.log.Printf("federation: write to %s: %v", l.name, err)
			_ = l.conn.Close()
			broken = true
		}
	}
}

// enqueueLocked copies one encoded message into the link's outbox and wakes
// its writer; failures surface through the link's teardown/replay cycle. An
// event frame (forward) counts against outQueueDepth: with that many waiting
// the peer cannot keep up, and the link is poisoned rather than blocking the
// broker — once: it stays in f.links until its reader has run dropLink, and
// every enqueue until then finds the flag and leaves. Caller holds Fed.mu.
func (f *Fed) enqueueLocked(l *peerLink, b []byte, forward bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.cut:
		return
	case forward && l.forwards >= outQueueDepth:
		l.cut = true
		f.slowCuts.Add(1)
		f.log.Printf("federation: peer %s cannot keep up (%d forwards queued); dropping the link", l.name, l.forwards)
		_ = l.conn.Close()
		return
	case forward:
		l.forwards++
	}
	l.buf = append(l.buf, b...)
	select {
	case l.wake <- struct{}{}:
	default: // the writer has a wake-up pending
	}
}

// send executes the route messages the table returned: each is encoded and
// queued on its link, in order. Caller holds Fed.mu.
func (f *Fed) send(msgs []routing.Msg) {
	for _, m := range msgs {
		var b []byte
		if p := m.Profile; p != nil {
			b = wire.AppendRouteAddFrame(nil, string(m.ID), p.Render(f.sch), p.Priority)
		} else {
			b = wire.AppendRouteWithdrawFrame(nil, string(m.ID))
		}
		f.enqueueLocked(f.links[m.To], b, false)
	}
}

// SlowCuts counts the links cut because their peer could not keep up with
// the events forwarded to it.
func (f *Fed) SlowCuts() uint64 { return f.slowCuts.Load() }

// Stats implements wire.Overlay. forwarded counts the link crossings the
// table accepted, filtered the ones it avoided.
func (f *Fed) Stats() (node string, peers int, forwarded, filtered uint64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	forwarded, filtered = f.table.Counters()
	return f.name, len(f.links), forwarded, filtered
}

// ProtoV2Peers returns the number of live peer links, all of which speak
// protocol v2. It is kept for the benchmark, which polls it.
func (f *Fed) ProtoV2Peers() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.links)
}

// RouteCount returns the number of uncovered routes on the link to the named
// peer (0 when the link is down), the wire twin of Node.RouteCount.
func (f *Fed) RouteCount(peer string) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.table.RouteCount(peer)
}

// Peers lists the names of the live peer links.
func (f *Fed) Peers() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	names := make([]string, 0, len(f.links))
	for name := range f.links {
		names = append(names, name)
	}
	return names
}

// Close tears every link down and stops the dial supervisors. The local
// broker is not closed; the caller owns it.
func (f *Fed) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	close(f.done)
	// Empty the map and the table so nothing enqueues to the closed queues:
	// late dropLink/forward callers find no live link and back off.
	for name, l := range f.links {
		_ = l.conn.Close()
		l.closeOut()
		delete(f.links, name)
		_ = f.table.Detach(name) // nobody is left to tell
	}
	f.mu.Unlock()
	f.wg.Wait()
}
