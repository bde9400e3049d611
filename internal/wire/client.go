package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"genas/internal/event"
	"genas/internal/schema"
)

// Client speaks the wire protocol: one hello line each way, then frames. It
// runs the shape a server session runs: one reader and one Outbox writer.
// Every request gets a correlation id and a waiter in the pending table and is
// encoded into the outbox; the reader hands each reply to its id's waiter and
// each notification to Notifications(), the client's one queue. Client is
// safe for concurrent use, and concurrent requests pipeline.
type Client struct {
	conn  net.Conn
	out   *Outbox
	depth int
	// sch and defaults are the daemon's, rebuilt from the hello's answer.
	sch      *schema.Schema
	defaults *event.Defaults

	nextCid atomic.Uint32
	pendMu  sync.Mutex
	pending map[uint32]*waiter

	notifs  chan Notification
	dropped atomic.Uint64
	done    chan struct{}
}

// Notification is one matched event delivered to a client: the matched
// subscription's id, the daemon's sequence number for the event and the event
// by attribute name. The notifications of one event share its map, as
// in-process ones share Event.Vals: read it, copy it before changing it.
type Notification struct {
	Profile string
	Seq     uint64
	Event   map[string]float64
}

// DialConfig parameterizes DialWith. The zero value dials with no timeout and
// pipelines up to DefaultPipelineDepth frames.
type DialConfig struct {
	// Timeout bounds the TCP dial and the hello exchange.
	Timeout time.Duration
	// Proto selects nothing: there is one protocol, v2. The field is kept so
	// that callers naming ProtoV2 still compile.
	Proto Proto
	// PipelineDepth caps in-flight frames per batched publish
	// (0 = DefaultPipelineDepth, minimum 1).
	PipelineDepth int
}

// DefaultPipelineDepth is the in-flight frame window used when
// DialConfig.PipelineDepth is zero.
const DefaultPipelineDepth = 32

// DialWith connects to a GENAS daemon. It sends a hello advertising protocol
// v2; the server answers with the schema, whose attribute order defines the
// binary slot layout and whose defaults complete the events Publish and
// PublishBatch are given, and every byte after that answer is a frame. A
// server that answers anything else, or attributes that form no valid schema,
// fails the dial.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = DefaultPipelineDepth
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	rd := bufio.NewReader(conn)
	sch, d, err := handshake(conn, rd, cfg.Timeout)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return newClient(conn, rd, sch, d, cfg.PipelineDepth), nil
}

// newClient starts the reader and the writer of a connection past its hello.
// A failed write surfaces as failed requests, so the writer logs nowhere.
func newClient(conn net.Conn, rd *bufio.Reader, sch *schema.Schema, d *event.Defaults, depth int) *Client {
	c := &Client{
		conn:     conn,
		out:      NewOutbox(conn, 0, log.New(io.Discard, "", 0)),
		depth:    depth,
		sch:      sch,
		defaults: d,
		pending:  make(map[uint32]*waiter),
		notifs:   make(chan Notification, notifyQueue),
		done:     make(chan struct{}),
	}
	go c.readLoop(&inbound{rd: rd})
	return c
}

// handshake runs the hello exchange on a fresh connection: one line out, one
// line back, which must confirm v2 and carry a valid schema.
func handshake(conn net.Conn, rd *bufio.Reader, timeout time.Duration) (*schema.Schema, *event.Defaults, error) {
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	line, err := EncodeLine(Request{Op: OpHello, Proto: int(ProtoV2)})
	if err != nil {
		return nil, nil, err
	}
	if _, err := conn.Write(line); err != nil {
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	if line, err = ReadLine(rd); err != nil {
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	resp, err := DecodeResponse(line)
	if err != nil {
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	if resp.Type != MsgOK || resp.Proto < int(ProtoV2) {
		if resp.Error != "" {
			return nil, nil, fmt.Errorf("hello: server declined protocol v2: %s", resp.Error)
		}
		return nil, nil, errors.New("hello: server declined protocol v2")
	}
	sch, d, err := helloSchema(resp.Attributes)
	if err != nil {
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	return sch, d, nil
}

// readLoop demultiplexes the inbound stream: notifications to
// Notifications(), every reply to its correlation id's waiter. A reply whose
// waiter gave up (timed out) finds no entry and is dropped — it is never
// handed to another request. A framing error closes the connection.
func (c *Client) readLoop(in *inbound) {
	defer close(c.done)
	var seq uint64            // the event notified last
	var ev map[string]float64 // and its map
	for {
		cid, resp, err := readResponse(in)
		if err != nil {
			break
		}
		if resp.Type == MsgNotification {
			// One Notification per id, all sharing one map of the event. The
			// daemon numbers each event once, and its writer may split an
			// event's ids over two frames: a frame continuing the last one's
			// event shares its map. A notification that finds the queue full
			// is dropped and counted: the client's one drop point.
			if resp.Seq != seq || !holds(c.sch, ev, resp.Vals) {
				if ev, err = mapOf(c.sch, resp.Vals); err != nil {
					break
				}
				seq = resp.Seq
			}
			for _, id := range resp.IDs {
				select {
				case c.notifs <- Notification{Profile: id, Seq: resp.Seq, Event: ev}:
				default:
					c.dropped.Add(1)
				}
			}
			continue
		}
		c.pendMu.Lock()
		w := c.pending[cid]
		delete(c.pending, cid)
		c.pendMu.Unlock()
		if w != nil {
			if resp.MatchedEach != nil { // the read scratch: move it into w
				w.counts = append(w.counts[:0], resp.MatchedEach...)
				resp.MatchedEach = w.counts
			}
			w.ch <- resp // cap 1: never blocks
		}
	}
	// Close the outbox before failing the waiters: a request that found it
	// open had registered its waiter already, so none is left behind.
	_ = c.conn.Close()
	c.out.Close()
	c.pendMu.Lock()
	for cid, w := range c.pending {
		delete(c.pending, cid)
		close(w.ch)
	}
	c.pendMu.Unlock()
	close(c.notifs)
}

// Notifications returns the inbound notification stream, which buffers 256
// notifications. The channel closes when the connection drops.
func (c *Client) Notifications() <-chan Notification { return c.notifs }

// Dropped returns how many notifications were discarded because
// Notifications() was full when they arrived.
func (c *Client) Dropped() uint64 { return c.dropped.Load() }

// HelloSchema returns the daemon's schema as the hello's answer announced
// it: the attributes a published map may name and a notification's map
// names, in slot order.
func (c *Client) HelloSchema() *schema.Schema { return c.sch }

// waiter is one request's reply slot, timeout and batch counts, pooled. It
// returns to the pool only once its reply was received and read: a waiter
// that gave up is never reused, so a reader that had already claimed it parks
// the late reply where no other request will find it.
type waiter struct {
	ch     chan Response
	timer  *time.Timer
	counts []int
}

// (Resetting a timer discards whatever it held: go.mod is past 1.23.)
var waiters = sync.Pool{New: func() any { return &waiter{ch: make(chan Response, 1), timer: time.NewTimer(0)} }}

// release pools w after its reply was read, unless err says none came.
func release(w *waiter, err error) {
	if err != errTimedOut && err != errConnClosed {
		waiters.Put(w)
	}
}

var (
	errTimedOut   = errors.New("wire: request timed out")
	errConnClosed = errors.New("wire: connection closed")
)

// post queues one request. While the outbox holds more than its backlog the
// request first waits for the writer, for as long as timeout allows: one that
// times out there was never sent. Then its id is allocated and its waiter
// registered before the frame is encoded into the outbox, so no reply can
// overtake its registration. The writer sends it under writeTimeout.
func (c *Client) post(req Request, timeout time.Duration) (uint32, *waiter, error) {
	w := waiters.Get().(*waiter)
	var expired <-chan time.Time
	if timeout > 0 {
		w.timer.Reset(timeout)
		expired = w.timer.C
	}
	room := c.out.makeRoom(expired)
	w.timer.Stop()
	if !room {
		waiters.Put(w)
		return 0, nil, errTimedOut
	}
	cid := c.nextCid.Add(1)
	c.pendMu.Lock()
	c.pending[cid] = w
	c.pendMu.Unlock()
	if err := c.out.request(cid, req); err != nil {
		c.deregister(cid) // and never reuse the waiter: a stray reply may have reached it
		return 0, nil, err
	}
	return cid, w, nil
}

func (c *Client) deregister(cid uint32) {
	c.pendMu.Lock()
	delete(c.pending, cid)
	c.pendMu.Unlock()
}

// await blocks until cid's response arrives, the connection drops, or the
// timeout fires; the caller then releases w, where MatchedEach lives.
func (c *Client) await(cid uint32, w *waiter, timeout time.Duration) (Response, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		w.timer.Reset(timeout)
		timer = w.timer.C
	}
	var resp Response
	var ok bool
	select {
	case resp, ok = <-w.ch:
	case <-timer:
		c.deregister(cid)
		return Response{}, errTimedOut
	}
	w.timer.Stop() // before the waiter can reach another request
	if !ok {
		return Response{}, errConnClosed
	}
	if resp.Type == MsgError {
		return resp, fmt.Errorf("wire: server: %s", resp.Error)
	}
	return resp, nil
}

// roundTrip sends one request and waits for its reply.
func (c *Client) roundTrip(req Request, timeout time.Duration) (Response, error) {
	cid, w, err := c.post(req, timeout)
	if err != nil {
		return Response{}, err
	}
	resp, err := c.await(cid, w, timeout)
	release(w, err)
	return resp, err
}

// Ping round-trips a ping.
func (c *Client) Ping(timeout time.Duration) error {
	_, err := c.roundTrip(Request{Op: OpPing}, timeout)
	return err
}

// Subscribe registers a profile expression under id.
func (c *Client) Subscribe(id, profile string, priority float64, timeout time.Duration) error {
	_, err := c.roundTrip(Request{Op: OpSubscribe, ID: id, Profile: profile, Priority: priority}, timeout)
	return err
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(id string, timeout time.Duration) error {
	_, err := c.roundTrip(Request{Op: OpUnsubscribe, ID: id}, timeout)
	return err
}

// Publish posts an event given as attribute name → value; it returns the
// number of matched profiles. The map becomes a schema-order vector here,
// completed from the defaults the hello announced (event.Complete), and
// travels as PublishVals does. A name outside the schema (wrapping
// schema.ErrUnknownAttribute) or an omitted attribute without a default
// (wrapping event.ErrArity) fails before anything is sent; the server checks
// the domains.
func (c *Client) Publish(ev map[string]float64, timeout time.Duration) (int, error) {
	vals := make([]float64, c.sch.N())
	if err := event.Complete(c.sch, vals, ev, c.defaults); err != nil {
		return 0, fmt.Errorf("wire: publish: %w", err)
	}
	return c.PublishVals(vals, timeout)
}

// PublishVals posts one event as a schema-order value vector; vals is
// reusable on return. It travels as it is — one small binary frame, no map on
// either end.
func (c *Client) PublishVals(vals []float64, timeout time.Duration) (int, error) {
	resp, err := c.roundTrip(Request{Op: OpPublish, Vals: vals}, timeout)
	if err != nil {
		return 0, err
	}
	return resp.Matched, nil
}

// PublishValsBatch posts a batch of schema-order value vectors and returns
// per-event match counts, its only allocation. The batch is chunked into
// frames, each under MaxFrame, and up to the connection's pipeline depth of
// them are in flight at once — later chunks are on the wire while earlier
// acknowledgements are still outstanding. On error the counts gathered so far
// accompany it as a lower bound on what was committed: the chunk that errored
// may itself have been processed by the server (e.g. a response timeout after
// a successful write), so callers must not treat the count as exact when
// deciding to retry.
func (c *Client) PublishValsBatch(batch [][]float64, timeout time.Duration) ([]int, error) {
	sc := batches.Get().(*batchScratch)
	defer batches.Put(sc)
	return c.publishValsBatch(batch, timeout, sc)
}

// batchScratch is a batched publish's pooled bookkeeping: the window of frames
// in flight, and PublishBatch's vectors, which post encodes before it returns.
type batchScratch struct {
	window []inflight
	block  []float64
	batch  [][]float64
}

// inflight is a posted frame: its id, its waiter and its event count.
type inflight struct {
	cid uint32
	w   *waiter
	n   int
}

var batches = sync.Pool{New: func() any { return new(batchScratch) }}

func (c *Client) publishValsBatch(batch [][]float64, timeout time.Duration, sc *batchScratch) ([]int, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	// Chunk so the window has depth requests to pipeline. An event encodes to
	// a u32 count and one f64 per attribute.
	per := max(8, (len(batch)+c.depth-1)/c.depth)
	if maxPer := (MaxFrame - 64) / (8*c.sch.N() + 4); per > maxPer && maxPer > 0 {
		per = maxPer
	}
	// A ring: frame k waits in window[k%size] from its post to its collection.
	size := min(c.depth, (len(batch)+per-1)/per)
	sc.window = slices.Grow(sc.window[:0], size)[:size]
	window, sent, got := sc.window, 0, 0
	counts := make([]int, 0, len(batch))
	collect := func() error {
		f := window[got%size]
		got++
		resp, err := c.await(f.cid, f.w, timeout)
		if err == nil && len(resp.MatchedEach) != f.n {
			err = fmt.Errorf("wire: batch ack counts %d events, sent %d", len(resp.MatchedEach), f.n)
		}
		if err == nil {
			counts = append(counts, resp.MatchedEach...)
		}
		release(f.w, err)
		return err
	}
	fail := func(err error) ([]int, error) {
		for ; got < sent; got++ {
			c.deregister(window[got%size].cid)
		}
		return counts, err
	}
	for lo := 0; lo < len(batch); lo += per {
		hi := min(lo+per, len(batch))
		cid, w, err := c.post(Request{Op: OpPublishBatch, Batch: batch[lo:hi]}, timeout)
		if err != nil {
			return fail(err)
		}
		window[sent%size] = inflight{cid, w, hi - lo}
		if sent++; sent-got >= c.depth {
			if err := collect(); err != nil {
				return fail(err)
			}
		}
	}
	for got < sent {
		if err := collect(); err != nil {
			return fail(err)
		}
	}
	return counts, nil
}

// PublishBatch posts several events given as attribute maps and returns the
// per-event match counts, positionally aligned with evs, its only
// allocation. The maps become one block of vectors, completed from the
// announced defaults as in Publish, and take PublishValsBatch's path
// (chunked, pipelined, same error contract). A map that cannot convert fails
// the batch, naming its index, before anything is sent.
func (c *Client) PublishBatch(evs []map[string]float64, timeout time.Duration) ([]int, error) {
	sc := batches.Get().(*batchScratch)
	defer batches.Put(sc)
	n := c.sch.N()
	sc.block = slices.Grow(sc.block[:0], n*len(evs))[:n*len(evs)]
	sc.batch = slices.Grow(sc.batch[:0], len(evs))[:len(evs)]
	for i, ev := range evs {
		sc.batch[i] = sc.block[i*n : (i+1)*n]
		if err := event.Complete(c.sch, sc.batch[i], ev, c.defaults); err != nil {
			return nil, fmt.Errorf("wire: publish_batch: event %d: %w", i, err)
		}
	}
	return c.publishValsBatch(sc.batch, timeout, sc)
}

// Quench asks whether the region [lo,hi] of attr is unsubscribed.
func (c *Client) Quench(attr string, lo, hi float64, timeout time.Duration) (bool, error) {
	resp, err := c.roundTrip(Request{Op: OpQuench, Attr: attr, Lo: lo, Hi: hi}, timeout)
	if err != nil {
		return false, err
	}
	return resp.Quenched, nil
}

// Stats fetches broker statistics.
func (c *Client) Stats(timeout time.Duration) (*StatsPayload, error) {
	resp, err := c.roundTrip(Request{Op: OpStats}, timeout)
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, errors.New("wire: empty stats")
	}
	return resp.Stats, nil
}

// Profiles fetches the daemon's registered profiles.
func (c *Client) Profiles(timeout time.Duration) ([]ProfilePayload, error) {
	resp, err := c.roundTrip(Request{Op: OpProfiles}, timeout)
	if err != nil {
		return nil, err
	}
	return resp.Profiles, nil
}

// Schema fetches the daemon's attribute schema.
func (c *Client) Schema(timeout time.Duration) ([]AttrPayload, error) {
	resp, err := c.roundTrip(Request{Op: OpSchema}, timeout)
	if err != nil {
		return nil, err
	}
	return resp.Attributes, nil
}

// Close tears the connection down and waits for the reader and the writer to
// exit. Closing a connection already closed, by an earlier Close or by the
// reader on a framing error, returns nil.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	<-c.out.Close()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
