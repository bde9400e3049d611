package wire

import (
	"encoding/json"
	"fmt"
)

// lineCodec is protocol v1: one JSON object per line. Everything v1-specific
// lives in this file — MIGRATION.md ("Sunsetting v1") says when it can go.
//
// Lines carry no correlation ids; the server answers in request order, so
// the k-th reply read answers the k-th request written (Inbound.replies
// counts them). JSON names every attribute, so vectors are rendered as maps
// here and nowhere else.
type lineCodec struct{}

func (lineCodec) readRequest(in *Inbound) (uint32, Request, error) {
	for {
		line, err := ReadLine(in.rd)
		if err != nil {
			return 0, Request{}, err
		}
		if len(line) == 0 {
			continue
		}
		in.size = len(line) + 1
		req, err := DecodeRequest(line)
		return 0, req, err
	}
}

// readResponse skips lines that do not decode: the next newline
// resynchronizes the stream, and a garbage line answers no request.
func (lineCodec) readResponse(in *Inbound) (uint32, Response, error) {
	for {
		line, err := ReadLine(in.rd)
		if err != nil {
			return 0, Response{}, err
		}
		resp, err := DecodeResponse(line)
		if err != nil {
			continue
		}
		if resp.Type == MsgNotification {
			return 0, resp, nil
		}
		in.replies++
		return in.replies, resp, nil
	}
}

func (lineCodec) appendRequest(dst []byte, _ uint32, req Request, sl *slots) ([]byte, error) {
	var err error
	if req.Vals != nil {
		if req.Event, err = sl.mapOf(req.Vals); err != nil {
			return nil, err
		}
	}
	if req.Batch != nil {
		req.Events = make([]map[string]float64, len(req.Batch))
		for i, vals := range req.Batch {
			if req.Events[i], err = sl.mapOf(vals); err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
		}
	}
	return appendJSONLine(dst, req)
}

// appendResponse writes one line, or — for a notification standing for
// several ids — one line per id over the one rendered event.
func (lineCodec) appendResponse(dst []byte, _ uint32, resp Response, sl *slots) ([]byte, error) {
	var err error
	if resp.Vals != nil {
		if resp.Event, err = sl.mapOf(resp.Vals); err != nil {
			return nil, err
		}
	}
	if resp.IDs == nil {
		return appendJSONLine(dst, resp)
	}
	for _, id := range resp.IDs {
		resp.Profile = id
		if dst, err = appendJSONLine(dst, resp); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendJSONLine(dst []byte, v any) ([]byte, error) {
	js, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return append(append(dst, js...), '\n'), nil
}

// eventSize bounds one event's JSON object: per attribute the quoted name
// (JSON escapes a byte to at most six), a colon, a float64 rendering (at most
// 24 bytes) and a comma, plus the braces and the batch's separator.
func (lineCodec) eventSize(sl *slots) int {
	n := 3
	for _, name := range sl.names {
		n += 6*len(name) + 28
	}
	return n
}
