// The wire protocol (v2): length-prefixed binary frames.
//
// A frame is [u32 length][u8 type][payload], big-endian, where length
// counts the type byte plus the payload and is capped at MaxFrame. Events
// travel as fixed-width vectors of attribute values in schema slot order —
// no attribute names on the wire — so one publish frame is a handful of
// bytes instead of a JSON object, and decoding is a bounds check plus eight
// byte loads per attribute into a reusable scratch slice.
//
// Only the hot paths have binary payloads: publish, publish_batch, their
// acknowledgements, notifications and the three peer frames. An event takes
// no other form: the client fills what a map omits from the defaults the
// hello announced. Cold control operations (subscribe, stats, schema, …) ride
// inside control frames that carry their JSON encoding, the same JSON the
// hello line speaks.
//
// Client request and response frames start with a u32 correlation id: a
// connection may have many requests in flight (pipelining), and the id pairs
// each response with its request. Notifications carry no id — they are not
// responses. Peer frames are no requests at all: they travel only on a peer
// link, and a client connection that sends one has lost its framing.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// MaxFrame caps one frame (and the hello line): length prefixes beyond it
// are rejected with ErrFrameTooBig before any allocation happens.
const MaxFrame = 1 << 20

// Sentinel errors of the framing layer.
var (
	// ErrFrameTooBig reports a length prefix (or hello line) over MaxFrame.
	ErrFrameTooBig = errors.New("wire: frame exceeds the size cap")
	// ErrFrameTruncated reports a connection that closed mid-frame: inside
	// the length prefix or before the announced payload arrived.
	ErrFrameTruncated = errors.New("wire: truncated frame")
	// ErrBadFrame reports a structurally invalid frame: zero length, an
	// unknown type byte, or a payload that does not parse.
	ErrBadFrame = errors.New("wire: malformed frame")
)

// Frame type bytes. Client requests are 0x0_, server responses 0x4_, peer
// frames 0x8_.
const (
	framePublish      byte = 0x01 // cid, vector
	framePublishBatch byte = 0x02 // cid, u32 count, count vectors
	frameControl      byte = 0x03 // cid, JSON request

	frameOK        byte = 0x41 // cid, u32 matched
	frameOKBatch   byte = 0x42 // cid, u32 count, count u32 matches
	frameErr       byte = 0x43 // cid, str op, str message
	frameControlRe byte = 0x45 // cid, JSON response
	// frameNotifyGroup is the notification: one event's k matched ids on a
	// connection, the vector once. 0x44 is retired: an old client reads it as
	// a one-id notification, so it must not be reused.
	frameNotifyGroup byte = 0x46 // u64 seq, vector, u32 k ≥ 1, k str profile

	// FrameForward carries one event (vector payload) across a peer link.
	FrameForward byte = 0x81
	// FrameRouteAdd announces a route: str id, str profile, f64 priority.
	FrameRouteAdd byte = 0x82
	// FrameRouteWithdraw retracts a route: str id.
	FrameRouteWithdraw byte = 0x83
)

// ReadFrame reads one frame, reusing *buf as the payload buffer (grown as
// needed and retained across calls — the pooled read path). The returned
// payload aliases *buf and is valid until the next call. A clean EOF at a
// frame boundary returns io.EOF; EOF inside a frame returns
// ErrFrameTruncated; an oversized or zero length prefix returns
// ErrFrameTooBig / ErrBadFrame without consuming the payload.
func ReadFrame(rd *bufio.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	// Peeked: a local array would escape through the reader, one allocation per frame.
	hdr, err := rd.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: connection closed inside the length prefix", ErrFrameTruncated)
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = rd.Discard(4) // cannot fail: the bytes are buffered
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes (cap %d)", ErrFrameTooBig, n, MaxFrame)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	// A frame longer than the reader's buffer is read straight into *buf but
	// for its last rd.Size()-1 bytes, which go through the buffer: the read
	// that fills it takes in what follows the frame too, so Buffered sees a
	// frame sent behind this one.
	direct := max(0, int(n)-(rd.Size()-1))
	_, err = io.ReadFull(rd, (*buf)[:direct])
	if err == nil {
		_, err = io.ReadFull(rd, (*buf)[direct:])
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: connection closed inside a %d-byte frame", ErrFrameTruncated, n)
	}
	return (*buf)[0], (*buf)[1:], nil
}

// ReadLine reads one JSON line — the hello and its answer — without its
// terminator (tolerating CRLF), accumulating across the reader's buffer up to
// MaxFrame. The same *bufio.Reader then reads the frames that follow without
// losing buffered bytes. A final unterminated line is returned before io.EOF,
// matching bufio.Scanner.
func ReadLine(rd *bufio.Reader) ([]byte, error) {
	line, err := rd.ReadSlice('\n')
	if err == nil {
		return trimEOL(line), nil
	}
	if err == io.EOF {
		if len(line) > 0 {
			return trimEOL(line), nil
		}
		return nil, io.EOF
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	// The line spans the reader's buffer: accumulate into an owned slice.
	buf := append([]byte(nil), line...)
	for {
		line, err = rd.ReadSlice('\n')
		buf = append(buf, line...)
		switch err {
		case nil, io.EOF:
			if err == io.EOF && len(buf) == 0 {
				return nil, io.EOF
			}
			out := trimEOL(buf)
			if len(out) > MaxFrame {
				return nil, fmt.Errorf("%w: line exceeds %d bytes", ErrFrameTooBig, MaxFrame)
			}
			return out, nil
		case bufio.ErrBufferFull:
			if len(buf) > MaxFrame {
				return nil, fmt.Errorf("%w: line exceeds %d bytes", ErrFrameTooBig, MaxFrame)
			}
			continue
		default:
			return nil, err
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// --- primitive appends -------------------------------------------------

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendVec(dst []byte, vals []float64) []byte {
	dst = appendU32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = appendF64(dst, v)
	}
	return dst
}

// beginFrame reserves the length prefix and writes the type byte; the
// returned mark feeds finishFrame, which backfills the length.
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	mark := len(dst)
	return append(dst, 0, 0, 0, 0, typ), mark
}

func finishFrame(dst []byte, mark int) []byte {
	binary.BigEndian.PutUint32(dst[mark:mark+4], uint32(len(dst)-mark-4))
	return dst
}

// --- cursor decode -----------------------------------------------------

// cur walks a frame payload with a sticky out-of-bounds flag, so decoders
// read field by field and check validity once at the end.
type cur struct {
	b   []byte
	bad bool
}

func (c *cur) take(n int) []byte {
	if c.bad || len(c.b) < n {
		c.bad = true
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cur) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *cur) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *cur) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cur) str() string { return string(c.bytes()) }

// bytes takes a length-prefixed string as a view of the payload.
func (c *cur) bytes() []byte {
	n := c.u32()
	if c.bad || uint64(n) > uint64(len(c.b)) {
		c.bad = true
		return nil
	}
	return c.take(int(n))
}

// vec decodes a vector into dst (appending — pass a reused scratch slice
// truncated to zero length for the pooled decode path, or nil for a fresh
// slice of exactly the announced length).
func (c *cur) vec(dst []float64) []float64 {
	n := c.u32()
	if c.bad || uint64(n)*8 > uint64(len(c.b)) {
		c.bad = true
		return dst
	}
	if dst == nil {
		dst = make([]float64, 0, n)
	}
	for i := 0; i < int(n); i++ {
		dst = append(dst, c.f64())
	}
	return dst
}

// done validates that the payload parsed cleanly and completely.
func (c *cur) done() error {
	if c.bad || len(c.b) != 0 {
		return fmt.Errorf("%w: bad payload", ErrBadFrame)
	}
	return nil
}

// --- binary frame builders and decoders --------------------------------

func appendPublishFrame(dst []byte, cid uint32, vals []float64) []byte {
	dst, mark := beginFrame(dst, framePublish)
	dst = appendU32(dst, cid)
	dst = appendVec(dst, vals)
	return finishFrame(dst, mark)
}

func appendPublishBatchFrame(dst []byte, cid uint32, batch [][]float64) []byte {
	dst, mark := beginFrame(dst, framePublishBatch)
	dst = appendU32(dst, cid)
	dst = appendU32(dst, uint32(len(batch)))
	for _, vals := range batch {
		dst = appendVec(dst, vals)
	}
	return finishFrame(dst, mark)
}

func appendNotifyGroupFrame(dst []byte, seq uint64, vals []float64, ids []string) []byte {
	dst, mark := beginFrame(dst, frameNotifyGroup)
	dst = appendU64(dst, seq)
	dst = appendVec(dst, vals)
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendStr(dst, id)
	}
	return finishFrame(dst, mark)
}

func appendOKFrame(dst []byte, cid uint32, matched int) []byte {
	dst, mark := beginFrame(dst, frameOK)
	dst = appendU32(dst, cid)
	dst = appendU32(dst, uint32(matched))
	return finishFrame(dst, mark)
}

func appendOKBatchFrame(dst []byte, cid uint32, counts []int) []byte {
	dst, mark := beginFrame(dst, frameOKBatch)
	dst = appendU32(dst, cid)
	dst = appendU32(dst, uint32(len(counts)))
	for _, n := range counts {
		dst = appendU32(dst, uint32(n))
	}
	return finishFrame(dst, mark)
}

func appendErrFrame(dst []byte, cid uint32, op Op, msg string) []byte {
	dst, mark := beginFrame(dst, frameErr)
	dst = appendU32(dst, cid)
	dst = appendStr(dst, string(op))
	dst = appendStr(dst, msg)
	return finishFrame(dst, mark)
}

// appendControlFrame wraps a JSON encoding (request or response — typ picks
// frameControl or frameControlRe) in a frame.
func appendControlFrame(dst []byte, typ byte, cid uint32, js []byte) []byte {
	dst, mark := beginFrame(dst, typ)
	dst = appendU32(dst, cid)
	dst = append(dst, js...)
	return finishFrame(dst, mark)
}

// --- peer frames -------------------------------------------------------
//
// Exported for federation's peer links, which read and write nothing else
// after the hello, and for the benchmark's stack ladder, which times the
// forward pair on its own. Route frames propagate profiles toward potential
// publishers; a forward carries an event across a link once that link's
// routing filter matched it, so "unnecessary event information is rejected
// as early as possible" (paper §5) at every hop. Peer frames carry no
// correlation id: a link is fire-and-forget in both directions.

// AppendForwardFrame encodes one event crossing a peer link.
func AppendForwardFrame(dst []byte, vals []float64) []byte {
	dst, mark := beginFrame(dst, FrameForward)
	dst = appendVec(dst, vals)
	return finishFrame(dst, mark)
}

// DecodeForwardFrame decodes a forward payload into scratch (appending
// after truncation to zero, so the caller's slice is reused).
func DecodeForwardFrame(payload []byte, scratch []float64) ([]float64, error) {
	c := cur{b: payload}
	vals := c.vec(scratch[:0])
	return vals, c.done()
}

// AppendRouteAddFrame encodes a route announcement.
func AppendRouteAddFrame(dst []byte, id, profile string, priority float64) []byte {
	dst, mark := beginFrame(dst, FrameRouteAdd)
	dst = appendStr(dst, id)
	dst = appendStr(dst, profile)
	dst = appendF64(dst, priority)
	return finishFrame(dst, mark)
}

// DecodeRouteAddFrame decodes a route announcement payload.
func DecodeRouteAddFrame(payload []byte) (id, profile string, priority float64, err error) {
	c := cur{b: payload}
	id = c.str()
	profile = c.str()
	priority = c.f64()
	return id, profile, priority, c.done()
}

// AppendRouteWithdrawFrame encodes a route withdrawal.
func AppendRouteWithdrawFrame(dst []byte, id string) []byte {
	dst, mark := beginFrame(dst, FrameRouteWithdraw)
	dst = appendStr(dst, id)
	return finishFrame(dst, mark)
}

// DecodeRouteWithdrawFrame decodes a route withdrawal payload.
func DecodeRouteWithdrawFrame(payload []byte) (string, error) {
	c := cur{b: payload}
	id := c.str()
	return id, c.done()
}

// --- requests and responses --------------------------------------------
//
// Publishes, their acknowledgements, errors and notifications are binary;
// every other message rides its JSON encoding inside a control frame.
// Framing errors are fatal: once the stream position is lost every later
// byte is garbage.

// readRequest reads the next request frame and its correlation id.
func readRequest(in *inbound) (uint32, Request, error) {
	typ, payload, err := ReadFrame(in.rd, &in.buf)
	if err != nil {
		return 0, Request{}, err
	}
	in.size = len(payload) + 5
	return decodeRequestFrame(typ, payload, in)
}

// readResponse reads the next response frame. Notifications carry cid 0.
func readResponse(in *inbound) (uint32, Response, error) {
	typ, payload, err := ReadFrame(in.rd, &in.buf)
	if err != nil {
		return 0, Response{}, err
	}
	return decodeResponseFrame(typ, payload, in)
}

// appendRequest encodes any request as one frame: a publish or publish_batch
// as its vectors, everything else as JSON in a control frame.
func appendRequest(dst []byte, cid uint32, req Request) ([]byte, error) {
	switch {
	case req.Op == OpPublish && req.Vals != nil:
		return appendPublishFrame(dst, cid, req.Vals), nil
	case req.Op == OpPublishBatch && req.Batch != nil:
		return appendPublishBatchFrame(dst, cid, req.Batch), nil
	}
	js, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return appendControlFrame(dst, frameControl, cid, js), nil
}

// decodeRequestFrame is appendRequest's inverse. A publish vector is decoded
// into in's scratch, and batch vectors are carved out of in's block, each
// capped at its own length; all are valid until the next read, and none is
// ever nil. Any other type byte, a peer frame's included, is a framing error.
func decodeRequestFrame(typ byte, payload []byte, in *inbound) (uint32, Request, error) {
	c := cur{b: payload}
	switch typ {
	case framePublish:
		cid := c.u32()
		in.vals = c.vec(in.vals[:0])
		return cid, Request{Op: OpPublish, Vals: in.vals}, c.done()
	case framePublishBatch:
		cid := c.u32()
		n := c.u32()
		if c.bad || n == 0 || uint64(n)*4 > uint64(len(c.b)) { // each event costs ≥ 4 bytes
			return 0, Request{}, fmt.Errorf("%w: bad batch count", ErrBadFrame)
		}
		// A well-formed frame holds exactly this many values, so the block
		// never regrows while vectors are carved from it.
		in.block = slices.Grow(in.block[:0], (len(c.b)-4*int(n))/8)
		in.batch = in.batch[:0]
		for i := uint32(0); i < n && !c.bad; i++ {
			lo := len(in.block)
			in.block = c.vec(in.block)
			in.batch = append(in.batch, in.block[lo:len(in.block):len(in.block)])
		}
		return cid, Request{Op: OpPublishBatch, Batch: in.batch}, c.done()
	case frameControl:
		cid := c.u32()
		if c.bad {
			return 0, Request{}, fmt.Errorf("%w: short control frame", ErrBadFrame)
		}
		req, err := DecodeRequest(c.b)
		if err != nil {
			return 0, Request{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		return cid, req, nil
	default:
		return 0, Request{}, fmt.Errorf("%w: unknown request frame type 0x%02x", ErrBadFrame, typ)
	}
}

// appendResponse encodes any response: publish acknowledgements, errors and
// notifications in binary, the rest as control frames. A notification is one
// frame per event and connection, listing the ids the event matched there.
func appendResponse(dst []byte, cid uint32, resp Response) ([]byte, error) {
	switch {
	case resp.Type == MsgOK && resp.Op == OpPublish && resp.MatchedEach == nil:
		return appendOKFrame(dst, cid, resp.Matched), nil
	case resp.Type == MsgOK && resp.Op == OpPublishBatch && resp.MatchedEach != nil:
		return appendOKBatchFrame(dst, cid, resp.MatchedEach), nil
	case resp.Type == MsgError:
		return appendErrFrame(dst, cid, resp.Op, resp.Error), nil
	case resp.Type == MsgNotification && len(resp.IDs) > 0:
		return appendNotifyGroupFrame(dst, resp.Seq, resp.Vals, resp.IDs), nil
	}
	js, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return appendControlFrame(dst, frameControlRe, cid, js), nil
}

// decodeResponseFrame is appendResponse's inverse. A notification's vector and
// ids (interned: inbound.id) and a batch acknowledgement's counts are decoded
// into in's scratch and valid until the next read.
func decodeResponseFrame(typ byte, payload []byte, in *inbound) (uint32, Response, error) {
	c := cur{b: payload}
	switch typ {
	case frameOK:
		cid := c.u32()
		matched := int(c.u32())
		return cid, Response{Type: MsgOK, Op: OpPublish, Matched: matched}, c.done()
	case frameOKBatch:
		cid := c.u32()
		n := c.u32()
		if c.bad || uint64(n)*4 > uint64(len(c.b)) {
			return 0, Response{}, fmt.Errorf("%w: bad batch count", ErrBadFrame)
		}
		if in.counts == nil { // MatchedEach is never nil, even for no events
			in.counts = make([]int, 0, n)
		}
		in.counts = slices.Grow(in.counts[:0], int(n))[:n]
		total := 0
		for i := range in.counts {
			in.counts[i] = int(c.u32())
			total += in.counts[i]
		}
		return cid, Response{Type: MsgOK, Op: OpPublishBatch, Matched: total, MatchedEach: in.counts}, c.done()
	case frameErr:
		cid := c.u32()
		op := Op(c.str())
		msg := c.str()
		return cid, Response{Type: MsgError, Op: op, Error: msg}, c.done()
	case frameNotifyGroup:
		seq := c.u64()
		in.vals = c.vec(in.vals[:0])
		k := c.u32()
		if c.bad || k == 0 || uint64(k)*4 > uint64(len(c.b)) { // each id costs ≥ 4 bytes
			return 0, Response{}, fmt.Errorf("%w: bad id count", ErrBadFrame)
		}
		in.ids = in.ids[:0]
		for i := uint32(0); i < k && !c.bad; i++ {
			in.ids = append(in.ids, in.id(c.bytes()))
		}
		return 0, Response{Type: MsgNotification, Seq: seq, Vals: in.vals, IDs: in.ids}, c.done()
	case frameControlRe:
		cid := c.u32()
		if c.bad {
			return 0, Response{}, fmt.Errorf("%w: short control frame", ErrBadFrame)
		}
		resp, err := DecodeResponse(c.b)
		if err != nil {
			return 0, Response{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		return cid, resp, nil
	}
	return 0, Response{}, fmt.Errorf("%w: unknown response frame type 0x%02x", ErrBadFrame, typ)
}
