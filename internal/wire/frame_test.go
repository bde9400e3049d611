package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"genas/internal/schema"
)

func frameReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// TestReadFrameEdges pins the framing layer's error contract: clean EOF only
// at a frame boundary, sentinel errors for truncation, zero length and the
// size cap, and payload buffer reuse across calls.
func TestReadFrameEdges(t *testing.T) {
	var buf []byte

	// A well-formed frame round-trips and a second read hits clean EOF.
	enc := appendPublishFrame(nil, 7, []float64{1.5, -2})
	rd := frameReader(enc)
	typ, payload, err := ReadFrame(rd, &buf)
	if err != nil || typ != framePublish {
		t.Fatalf("ReadFrame = %v type 0x%02x", err, typ)
	}
	cid, req, err := decodeRequestFrame(typ, payload, &inbound{})
	if vals := req.Vals; err != nil || cid != 7 || len(vals) != 2 || vals[0] != 1.5 || vals[1] != -2 {
		t.Fatalf("decodeRequestFrame = %d %v %v", cid, vals, err)
	}
	if _, _, err := ReadFrame(rd, &buf); err != io.EOF {
		t.Fatalf("EOF at frame boundary = %v, want io.EOF", err)
	}

	// The payload buffer is reused: a second smaller frame must not grow it.
	buf = buf[:0]
	rd = frameReader(appendOKFrame(nil, 1, 3))
	before := cap(buf)
	if before == 0 {
		t.Fatal("first read left no capacity to reuse")
	}
	if _, _, err := ReadFrame(rd, &buf); err != nil {
		t.Fatal(err)
	}
	if cap(buf) != before {
		t.Errorf("payload buffer reallocated: cap %d → %d", before, cap(buf))
	}

	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"truncated length prefix", []byte{0, 0}, ErrFrameTruncated},
		{"truncated payload", append([]byte{0, 0, 0, 10}, 0x01, 1, 2, 3), ErrFrameTruncated},
		{"zero length", []byte{0, 0, 0, 0}, ErrBadFrame},
		{"oversized length", []byte{0xFF, 0xFF, 0xFF, 0xFF}, ErrFrameTooBig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(frameReader(tc.raw), &buf)
			if !errors.Is(err, tc.want) {
				t.Errorf("ReadFrame(%v) = %v, want %v", tc.raw, err, tc.want)
			}
		})
	}
}

// TestReadLine pins the Scanner-compatible line reader the hello depends on: terminator trimming (LF and CRLF), a final unterminated line
// before EOF, lines spanning the reader's internal buffer, and the size cap.
func TestReadLine(t *testing.T) {
	rd := bufio.NewReaderSize(strings.NewReader("alpha\r\nbeta\ngamma"), 16)
	for _, want := range []string{"alpha", "beta", "gamma"} {
		line, err := ReadLine(rd)
		if err != nil || string(line) != want {
			t.Fatalf("ReadLine = %q %v, want %q", line, err, want)
		}
	}
	if _, err := ReadLine(rd); err != io.EOF {
		t.Fatalf("after last line: %v, want io.EOF", err)
	}

	// A line much longer than the reader's buffer accumulates correctly.
	long := strings.Repeat("x", 4096)
	rd = bufio.NewReaderSize(strings.NewReader(long+"\nrest\n"), 16)
	line, err := ReadLine(rd)
	if err != nil || string(line) != long {
		t.Fatalf("long line: len %d err %v", len(line), err)
	}
	if line, err = ReadLine(rd); err != nil || string(line) != "rest" {
		t.Fatalf("line after long line = %q %v", line, err)
	}

	// A line over MaxFrame is rejected with the size sentinel.
	rd = bufio.NewReaderSize(io.MultiReader(
		strings.NewReader(strings.Repeat("y", MaxFrame+2)),
		strings.NewReader("\n"),
	), 16)
	if _, err := ReadLine(rd); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized line = %v, want ErrFrameTooBig", err)
	}
}

// TestHotFrameRoundTrips drives every binary frame shape through its
// append/decode pair.
func TestHotFrameRoundTrips(t *testing.T) {
	read := func(t *testing.T, enc []byte) (byte, []byte) {
		t.Helper()
		var buf []byte
		typ, payload, err := ReadFrame(frameReader(enc), &buf)
		if err != nil {
			t.Fatal(err)
		}
		return typ, payload
	}

	t.Run("notify", func(t *testing.T) {
		vals := []float64{math.Inf(1), math.Copysign(0, -1), 42}
		typ, payload := read(t, appendNotifyGroupFrame(nil, 99, vals, []string{"hot"}))
		_, resp, err := decodeResponseFrame(typ, payload, &inbound{})
		if err != nil || !reflect.DeepEqual(resp.IDs, []string{"hot"}) || resp.Seq != 99 {
			t.Fatalf("decode = %+v %v", resp, err)
		}
		for i, v := range vals {
			if math.Float64bits(resp.Vals[i]) != math.Float64bits(v) {
				t.Errorf("val[%d] = %v, want %v", i, resp.Vals[i], v)
			}
		}
		// 0x44, the retired one-id spelling, is an unknown frame type.
		if _, _, err := decodeResponseFrame(0x44, payload, &inbound{}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("type 0x44 = %v, want ErrBadFrame", err)
		}
	})

	t.Run("notify-group", func(t *testing.T) {
		vals := []float64{41, 10}
		ids := []string{"hot", "", "an id with spaces"}
		typ, payload := read(t, appendNotifyGroupFrame(nil, 7, vals, ids))
		if typ != frameNotifyGroup {
			t.Fatalf("type 0x%02x", typ)
		}
		_, resp, err := decodeResponseFrame(typ, payload, &inbound{})
		if err != nil || resp.Type != MsgNotification || resp.Seq != 7 || resp.Profile != "" ||
			!reflect.DeepEqual(resp.IDs, ids) || !reflect.DeepEqual(resp.Vals, vals) {
			t.Fatalf("decode = %+v %v", resp, err)
		}
		// No ids, more ids than payload, an id cut short, trailing bytes.
		head := appendVec(appendU64(nil, 7), vals)
		for name, bad := range map[string][]byte{
			"k=0":          appendU32(head, 0),
			"k>payload":    appendStr(appendU32(head, 3), "hot"),
			"truncated id": append(appendU32(appendU32(head, 1), 9), "hot"...),
			"trailing":     append(appendStr(appendU32(head, 1), "hot"), 0),
		} {
			if _, _, err := decodeResponseFrame(frameNotifyGroup, bad, &inbound{}); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
			}
		}
	})

	t.Run("ok-batch", func(t *testing.T) {
		typ, payload := read(t, appendOKBatchFrame(nil, 5, []int{0, 3, 1}))
		cid, resp, err := decodeResponseFrame(typ, payload, &inbound{})
		if err != nil || cid != 5 {
			t.Fatal(err)
		}
		if resp.Matched != 4 || len(resp.MatchedEach) != 3 || resp.MatchedEach[1] != 3 {
			t.Errorf("resp = %+v", resp)
		}
	})

	t.Run("err", func(t *testing.T) {
		typ, payload := read(t, appendErrFrame(nil, 8, OpPublish, "out of domain"))
		cid, resp, err := decodeResponseFrame(typ, payload, &inbound{})
		if err != nil || cid != 8 || resp.Type != MsgError || resp.Op != OpPublish || resp.Error != "out of domain" {
			t.Errorf("err frame = %d %+v %v", cid, resp, err)
		}
	})

	t.Run("peer", func(t *testing.T) {
		typ, payload := read(t, AppendForwardFrame(nil, []float64{7, 8}))
		if typ != FrameForward {
			t.Fatalf("type 0x%02x", typ)
		}
		vals, err := DecodeForwardFrame(payload, make([]float64, 0, 2))
		if err != nil || len(vals) != 2 || vals[0] != 7 {
			t.Fatalf("forward = %v %v", vals, err)
		}

		typ, payload = read(t, AppendRouteAddFrame(nil, "hot", "profile(t >= 3)", 1.5))
		if typ != FrameRouteAdd {
			t.Fatalf("type 0x%02x", typ)
		}
		id, profile, prio, err := DecodeRouteAddFrame(payload)
		if err != nil || id != "hot" || profile != "profile(t >= 3)" || prio != 1.5 {
			t.Fatalf("route_add = %q %q %g %v", id, profile, prio, err)
		}

		typ, payload = read(t, AppendRouteWithdrawFrame(nil, "hot"))
		if typ != FrameRouteWithdraw {
			t.Fatalf("type 0x%02x", typ)
		}
		if id, err := DecodeRouteWithdrawFrame(payload); err != nil || id != "hot" {
			t.Fatalf("route_withdraw = %q %v", id, err)
		}
	})

	// Malformed payloads fail with ErrBadFrame, never panic.
	t.Run("malformed payloads", func(t *testing.T) {
		in := &inbound{}
		if _, _, err := decodeRequestFrame(framePublish, []byte{0, 0}, in); !errors.Is(err, ErrBadFrame) {
			t.Errorf("short publish = %v", err)
		}
		// A vector count that promises more floats than the payload holds.
		bad := appendU32(appendU32(nil, 1), 1000)
		if _, _, err := decodeRequestFrame(framePublish, bad, in); !errors.Is(err, ErrBadFrame) {
			t.Errorf("overlong vector count = %v", err)
		}
		// A string length pointing past the payload end.
		if _, _, _, err := DecodeRouteAddFrame(appendU32(nil, 1<<30)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("bad string length = %v", err)
		}
		// Trailing garbage after a complete payload.
		trail := append(appendU32(appendU32(nil, 1), 0), 0xAA)
		if _, _, err := decodeRequestFrame(framePublish, trail, in); !errors.Is(err, ErrBadFrame) {
			t.Errorf("trailing bytes = %v", err)
		}
		// A batch that announces no events.
		if _, _, err := decodeRequestFrame(framePublishBatch, appendU32(appendU32(nil, 1), 0), in); !errors.Is(err, ErrBadFrame) {
			t.Errorf("empty batch = %v", err)
		}
		// Unknown frame types on both decode surfaces.
		if _, _, err := decodeRequestFrame(0x7F, nil, in); !errors.Is(err, ErrBadFrame) {
			t.Errorf("unknown request type = %v", err)
		}
		if _, _, err := decodeResponseFrame(0x7F, nil, &inbound{}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("unknown response type = %v", err)
		}
	})
}

// numericSchema is a schema of numeric attributes naming names.
func numericSchema(names ...string) *schema.Schema {
	attrs := make([]schema.Attribute, len(names))
	for i, n := range names {
		dom, _ := schema.NewNumericDomain(-1000, 1000)
		attrs[i] = schema.Attribute{Name: n, Domain: dom}
	}
	return schema.MustNew(attrs...)
}

// crossCodecSchema is the schema the JSON-meaning property tests share.
var crossCodecSchema = numericSchema("temperature", "humidity")

// namedReq and namedResp are a message's JSON meaning with its vectors named
// as attribute maps: the keys of Request and Response in their order, the
// event keys where the retired map spelling had them. The embedded message's
// fields of the same names are shadowed.
type namedReq struct {
	Op       Op                   `json:"op"`
	ID       string               `json:"id,omitempty"`
	Profile  string               `json:"profile,omitempty"`
	Priority float64              `json:"priority,omitempty"`
	Event    map[string]float64   `json:"event,omitempty"`
	Events   []map[string]float64 `json:"events,omitempty"`
	Request
}

type namedResp struct {
	Type    MsgType            `json:"type"`
	Op      Op                 `json:"op,omitempty"`
	Error   string             `json:"error,omitempty"`
	Profile string             `json:"profile,omitempty"`
	Event   map[string]float64 `json:"event,omitempty"`
	Response
}

// namedRequest names a request's vectors, so a frame-decoded request compares
// JSON-equal to what was sent. Vectors of the wrong arity have no named form
// and are left alone.
func namedRequest(sch *schema.Schema, r Request) namedReq {
	n := namedReq{Op: r.Op, ID: r.ID, Profile: r.Profile, Priority: r.Priority, Request: r}
	if r.Vals != nil {
		n.Event, _ = mapOf(sch, r.Vals)
	}
	for _, v := range r.Batch {
		m, err := mapOf(sch, v)
		if err != nil {
			n.Events = nil
			break
		}
		n.Events = append(n.Events, m)
	}
	return n
}

func namedResponse(sch *schema.Schema, r Response) namedResp {
	n := namedResp{Type: r.Type, Op: r.Op, Error: r.Error, Profile: r.Profile, Response: r}
	if r.Vals != nil {
		n.Event, _ = mapOf(sch, r.Vals)
	}
	return n
}

// TestCrossCodecRequests is the JSON-meaning property test: every request
// shape — the vector encodings and the JSON control frame — must survive
// appendRequest → ReadFrame → decodeRequestFrame with the meaning of its JSON
// form (JSON equality) and an intact correlation id. Peer frames are no
// requests: the request decoder refuses each as a framing error.
func TestCrossCodecRequests(t *testing.T) {
	reqs := []Request{
		{Op: OpPing},
		{Op: OpSubscribe, ID: "hot", Profile: "profile(temperature >= 35)", Priority: 2},
		{Op: OpUnsubscribe, ID: "hot"},
		{Op: OpPublish, Vals: []float64{41, 10}},
		{Op: OpPublishBatch, Batch: [][]float64{{1, 2}, {3, 4}}},
		// Without vectors a publish is an older client's JSON spelling: it
		// travels as a control frame, which the server answers with an error.
		{Op: OpPublish},
		{Op: OpPublishBatch},
		{Op: OpQuench, Attr: "temperature", Lo: -30, Hi: 0},
		{Op: OpStats},
		{Op: OpSchema},
		{Op: OpProfiles},
		{Op: OpHello, Node: "A", Schema: "schema(temperature:[-30,50])", Proto: 2},
	}
	for _, req := range reqs {
		t.Run(string(req.Op), func(t *testing.T) {
			enc, err := appendRequest(nil, 42, req)
			if err != nil {
				t.Fatal(err)
			}
			var buf []byte
			typ, payload, err := ReadFrame(frameReader(enc), &buf)
			if err != nil {
				t.Fatal(err)
			}
			cid, got, err := decodeRequestFrame(typ, payload, &inbound{})
			if err != nil {
				t.Fatal(err)
			}
			if cid != 42 {
				t.Errorf("cid = %d, want 42", cid)
			}
			a, _ := json.Marshal(namedRequest(crossCodecSchema, req))
			b, _ := json.Marshal(namedRequest(crossCodecSchema, got))
			if !bytes.Equal(a, b) {
				t.Errorf("request changed in the frame:\n sent: %s\n read: %s", a, b)
			}
		})
	}
	for name, enc := range map[string][]byte{
		"forward":        AppendForwardFrame(nil, []float64{41, 10}),
		"route_add":      AppendRouteAddFrame(nil, "hot", "profile(temperature >= 35)", 1.5),
		"route_withdraw": AppendRouteWithdrawFrame(nil, "hot"),
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := decodeRequestFrame(enc[4], enc[5:], &inbound{}); !errors.Is(err, ErrBadFrame) {
				t.Errorf("a %s frame decodes as a request: %v, want ErrBadFrame", name, err)
			}
		})
	}
}

// TestCrossCodecResponses is the response-direction property test. A
// notification's ids travel beside its JSON meaning and are compared apart.
func TestCrossCodecResponses(t *testing.T) {
	resps := []Response{
		{Type: MsgOK, Op: OpPublish, Matched: 3},
		{Type: MsgOK, Op: OpPublishBatch, Matched: 4, MatchedEach: []int{0, 3, 1}},
		{Type: MsgError, Op: OpSubscribe, Error: "missing id"},
		{Type: MsgNotification, IDs: []string{"hot", "dry"}, Seq: 12, Vals: []float64{41, 10}},
		{Type: MsgPong},
		{Type: MsgOK, Op: OpQuench, Quenched: true},
		{Type: MsgStats, Stats: &StatsPayload{Subscriptions: 2, Published: 9, Peers: 1}},
		{Type: MsgSchema, Attributes: []AttrPayload{{Name: "temperature", Kind: "numeric", Lo: -30, Hi: 50}}},
		{Type: MsgOK, Op: OpProfiles, Profiles: []ProfilePayload{{ID: "hot", Expr: "profile(temperature >= 35)"}}},
		{Type: MsgOK, Op: OpHello, Proto: 2},
	}
	for _, resp := range resps {
		t.Run(string(resp.Type)+"/"+string(resp.Op), func(t *testing.T) {
			enc, err := appendResponse(nil, 7, resp)
			if err != nil {
				t.Fatal(err)
			}
			var buf []byte
			typ, payload, err := ReadFrame(frameReader(enc), &buf)
			if err != nil {
				t.Fatal(err)
			}
			cid, got, err := decodeResponseFrame(typ, payload, &inbound{})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Type != MsgNotification && cid != 7 {
				t.Errorf("cid = %d, want 7", cid)
			}
			a, _ := json.Marshal(namedResponse(crossCodecSchema, resp))
			b, _ := json.Marshal(namedResponse(crossCodecSchema, got))
			if !bytes.Equal(a, b) || !slices.Equal(resp.IDs, got.IDs) {
				t.Errorf("response changed in the frame:\n sent: %s %q\n read: %s %q", a, resp.IDs, b, got.IDs)
			}
		})
	}
}
