package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client speaks the wire protocol: one hello line each way, then frames.
// Every request gets a correlation id and a waiter in the pending table; one
// reader goroutine hands each reply to its id's waiter and notifications to
// Notifications(). Client is safe for concurrent use, and concurrent requests
// pipeline.
type Client struct {
	conn  net.Conn
	depth int
	// slots is the schema's slot layout, from the hello's answer.
	slots *slots

	// wmu serializes request writes; correlation ids are allocated under it.
	wmu     sync.Mutex
	wbuf    []byte // reused message build buffer
	nextCid uint32

	pendMu  sync.Mutex
	pending map[uint32]*waiter

	mu     sync.Mutex
	closed bool
	notifs chan Response
	done   chan struct{}
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
// binary slot layout, and every byte after that answer is a frame. A server
// that answers anything else fails the dial.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = DefaultPipelineDepth
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	rd := bufio.NewReaderSize(conn, 64*1024)
	attrs, err := handshake(conn, rd, cfg.Timeout)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		depth:   cfg.PipelineDepth,
		slots:   attrSlots(attrs),
		pending: make(map[uint32]*waiter),
		notifs:  make(chan Response, 256), // a burst the consumer may lag by before notifications drop
		done:    make(chan struct{}),
	}
	go c.readLoop(&inbound{rd: rd})
	return c, nil
}

// handshake runs the hello exchange on a fresh connection: one line out, one
// line back, which must confirm v2 and carry the schema.
func handshake(conn net.Conn, rd *bufio.Reader, timeout time.Duration) ([]AttrPayload, error) {
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	line, err := EncodeLine(Request{Op: OpHello, Proto: int(ProtoV2)})
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(line); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	if line, err = ReadLine(rd); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	resp, err := DecodeResponse(line)
	if err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	if resp.Type != MsgOK || resp.Proto < int(ProtoV2) {
		if resp.Error != "" {
			return nil, fmt.Errorf("hello: server declined protocol v2: %s", resp.Error)
		}
		return nil, errors.New("hello: server declined protocol v2")
	}
	if len(resp.Attributes) == 0 {
		return nil, errors.New("hello: the answer carries no schema")
	}
	return resp.Attributes, nil
}

// readLoop demultiplexes the inbound stream: notifications to
// Notifications(), every reply to its correlation id's waiter. A reply whose
// waiter gave up (timed out) finds no entry and is dropped — it is never
// handed to another request.
func (c *Client) readLoop(in *inbound) {
	defer close(c.done)
	for {
		cid, resp, err := readResponse(in)
		if err != nil {
			break
		}
		if resp.Type == MsgNotification {
			// One Response per matched id, all sharing the frame's vector.
			ids := resp.IDs
			resp.IDs = nil
			for _, resp.Profile = range ids {
				select {
				case c.notifs <- resp:
				default: // drop when the consumer lags; mirrors broker policy
				}
			}
			continue
		}
		c.pendMu.Lock()
		w := c.pending[cid]
		delete(c.pending, cid)
		c.pendMu.Unlock()
		if w != nil {
			w.ch <- resp // cap 1: never blocks
		}
	}
	// Fail every in-flight request, then the notification stream.
	c.pendMu.Lock()
	for cid, w := range c.pending {
		delete(c.pending, cid)
		close(w.ch)
	}
	c.pendMu.Unlock()
	close(c.notifs)
}

// Notifications returns the inbound notification stream. The channel closes
// when the connection drops. The payload arrives as Response.Vals, in schema
// slot order; EventMap gives its named form.
func (c *Client) Notifications() <-chan Response { return c.notifs }

// EventMap returns a notification's payload as attribute name → value.
func (c *Client) EventMap(resp Response) map[string]float64 {
	m, _ := c.slots.mapOf(resp.Vals)
	return m
}

// waiter is one request's reply slot and timeout, pooled. It returns to the
// pool only once its reply was received: a waiter that gave up is never
// reused, so a reader that had already claimed it parks the late reply where
// no other request will find it.
type waiter struct {
	ch    chan Response
	timer *time.Timer
}

// (Resetting a timer discards whatever it held: go.mod is past 1.23.)
var waiters = sync.Pool{New: func() any { return &waiter{make(chan Response, 1), time.NewTimer(0)} }}

// post encodes one request, registers its waiter and writes it. The id is
// allocated, and the waiter registered, under the write lock, before the
// bytes leave: replies cannot overtake their registration, and ids reach the
// wire in order.
func (c *Client) post(req Request, timeout time.Duration) (uint32, *waiter, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	cid := c.nextCid + 1
	b, err := appendRequest(c.wbuf[:0], cid, req, c.slots)
	if err != nil {
		return 0, nil, err
	}
	c.wbuf = b
	if len(b) > MaxFrame {
		return 0, nil, fmt.Errorf("%w: request encodes to %d bytes", ErrFrameTooBig, len(b))
	}
	c.nextCid = cid
	w := waiters.Get().(*waiter)
	c.pendMu.Lock()
	c.pending[cid] = w
	c.pendMu.Unlock()
	if timeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	//genas:allow locksafe wmu exists to serialize request writes on the shared conn; only pendMu, never held across a blocking call, nests under it
	if _, err := c.conn.Write(b); err != nil {
		c.deregister(cid)
		return 0, nil, fmt.Errorf("wire: write: %w", err)
	}
	return cid, w, nil
}

func (c *Client) deregister(cid uint32) {
	c.pendMu.Lock()
	delete(c.pending, cid)
	c.pendMu.Unlock()
}

// await blocks until cid's response arrives, the connection drops, or the
// timeout fires.
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
	case <-c.done:
		// The reader may have parked the response just before exiting.
		select {
		case resp, ok = <-w.ch:
		default:
		}
	case <-timer:
		c.deregister(cid)
		return Response{}, errors.New("wire: request timed out")
	}
	w.timer.Stop() // before the waiter can reach another request
	if !ok {
		return Response{}, errors.New("wire: connection closed")
	}
	waiters.Put(w)
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
	return c.await(cid, w, timeout)
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
// number of matched profiles.
func (c *Client) Publish(ev map[string]float64, timeout time.Duration) (int, error) {
	resp, err := c.roundTrip(Request{Op: OpPublish, Event: ev}, timeout)
	if err != nil {
		return 0, err
	}
	return resp.Matched, nil
}

// attrSlots builds the slot table a schema response describes: slot i is
// attribute i of the list.
func attrSlots(attrs []AttrPayload) *slots {
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	return newSlots(names)
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
// per-event match counts. The batch is chunked into frames, each under
// MaxFrame, and up to the connection's pipeline depth of them are in flight
// at once — later chunks are on the wire while earlier acknowledgements are
// still outstanding. On error the counts gathered so far accompany
// it as a lower bound on what was committed: the chunk that errored may
// itself have been processed by the server (e.g. a response timeout after a
// successful write), so callers must not treat the count as exact when
// deciding to retry.
func (c *Client) PublishValsBatch(batch [][]float64, timeout time.Duration) ([]int, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	// Chunk so the window has depth requests to pipeline. An event encodes to
	// a u32 count and one f64 per attribute.
	per := max(8, (len(batch)+c.depth-1)/c.depth)
	if maxPer := (MaxFrame - 64) / (8*len(c.slots.names) + 4); per > maxPer && maxPer > 0 {
		per = maxPer
	}

	type inflight struct {
		cid uint32
		w   *waiter
		n   int
	}
	var window []inflight
	counts := make([]int, 0, len(batch))
	collect := func() error {
		w := window[0]
		window = window[1:]
		resp, err := c.await(w.cid, w.w, timeout)
		if err != nil {
			return err
		}
		if len(resp.MatchedEach) != w.n {
			return fmt.Errorf("wire: batch ack counts %d events, sent %d", len(resp.MatchedEach), w.n)
		}
		counts = append(counts, resp.MatchedEach...)
		return nil
	}
	fail := func(err error) ([]int, error) {
		for _, w := range window {
			c.deregister(w.cid)
		}
		return counts, err
	}
	for lo := 0; lo < len(batch); lo += per {
		hi := min(lo+per, len(batch))
		cid, w, err := c.post(Request{Op: OpPublishBatch, Batch: batch[lo:hi]}, timeout)
		if err != nil {
			return fail(err)
		}
		window = append(window, inflight{cid, w, hi - lo})
		if len(window) >= c.depth {
			if err := collect(); err != nil {
				return fail(err)
			}
		}
	}
	for len(window) > 0 {
		if err := collect(); err != nil {
			return fail(err)
		}
	}
	return counts, nil
}

// PublishBatch posts several events given as attribute maps and returns the
// per-event match counts, positionally aligned with evs. When every map
// covers the known schema exactly the batch becomes vectors and takes
// PublishValsBatch's path (chunked, pipelined, same error contract).
// Otherwise — an event leans on server-side defaults — it travels as one JSON
// request, halved for as long as its encoding exceeds MaxFrame.
func (c *Client) PublishBatch(evs []map[string]float64, timeout time.Duration) ([]int, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	if batch, ok := c.slots.vectorsOf(evs); ok {
		return c.PublishValsBatch(batch, timeout)
	}
	resp, err := c.roundTrip(Request{Op: OpPublishBatch, Events: evs}, timeout)
	if errors.Is(err, ErrFrameTooBig) && len(evs) > 1 {
		counts, err := c.PublishBatch(evs[:len(evs)/2], timeout)
		if err != nil {
			return counts, err
		}
		rest, err := c.PublishBatch(evs[len(evs)/2:], timeout)
		return append(counts, rest...), err
	}
	if err != nil {
		return nil, err
	}
	return resp.MatchedEach, nil
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

// Close tears the connection down and waits for the reader to exit.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
