package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary lines — seeded with every request op's
// JSON, hellos included — through the request decoder: it must never panic,
// and any line it accepts must survive an encode/decode round trip
// unchanged.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"op":"ping"}`,
		`{"op":"subscribe","id":"hot","profile":"profile(temperature >= 35)","priority":2}`,
		`{"op":"unsubscribe","id":"hot"}`,
		// An older client's publishes: the server refuses them.
		`{"op":"publish"}`,
		`{"op":"publish_batch"}`,
		`{"op":"quench","attr":"temperature","lo":-30,"hi":0}`,
		`{"op":"quench","attr":"humidity","lo":0,"hi":100}`,
		`{"op":"stats"}`,
		`{"op":"schema"}`,
		`{"op":"profiles"}`,
		// Hellos: a client's, a peer's, one too old.
		`{"op":"hello","proto":2}`,
		`{"op":"hello","node":"A","schema":"schema(temperature:[-30,50])","proto":2}`,
		`{"op":"hello","node":"A","schema":"schema(temperature:[-30,50])"}`,
		// Junk.
		``,
		`{}`,
		`{"op":""}`,
		`not json at all`,
		"{\"op\":\"hello\",\"node\":\"\u0000\"}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := DecodeRequest(line)
		if err != nil {
			return
		}
		encoded, err := EncodeLine(req)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
		}
		again, err := DecodeRequest(bytes.TrimSuffix(encoded, []byte("\n")))
		if err != nil {
			t.Fatalf("re-encoded request %q does not decode: %v", encoded, err)
		}
		// Compare through JSON: the struct contains only plain data.
		a, _ := json.Marshal(req)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the request:\n  first  %s\n  second %s", a, b)
		}
	})
}

// FuzzDecodeFrame feeds arbitrary bytes through the framing layer and both
// frame decoders. Seeds are the publish frames, the control-frame JSON
// shapes, the response frames with the notification frame, and structural
// junk. The decoders must never panic, and any frame they accept must survive
// a re-encode/decode round trip with identical meaning.
func FuzzDecodeFrame(f *testing.F) {
	sch := numericSchema("temperature", "humidity")
	corpus := []string{
		`{"op":"ping"}`,
		`{"op":"subscribe","id":"hot","profile":"profile(temperature >= 35)","priority":2}`,
		`{"op":"unsubscribe","id":"hot"}`,
		`{"op":"publish"}`,
		`{"op":"quench","attr":"temperature","lo":-30,"hi":0}`,
		`{"op":"stats"}`,
		`{"op":"schema"}`,
		`{"op":"profiles"}`,
		`{"op":"hello","node":"A","schema":"schema(temperature:[-30,50])","proto":2}`,
	}
	for _, line := range corpus {
		req, err := DecodeRequest([]byte(line))
		if err != nil {
			f.Fatalf("bad corpus line %q: %v", line, err)
		}
		enc, err := appendRequest(nil, 9, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// The vector frames: a publish, one of the wrong arity, one carrying NaN,
	// a batch.
	f.Add(appendPublishFrame(nil, 9, []float64{41, 10}))
	f.Add(appendPublishFrame(nil, 9, []float64{41}))
	f.Add(appendPublishFrame(nil, 9, []float64{math.NaN(), 10}))
	f.Add(appendPublishBatchFrame(nil, 9, [][]float64{{1, 2}, {3, 4}}))
	// Response-direction seeds and structural junk.
	f.Add(appendOKFrame(nil, 1, 3))
	f.Add(appendOKBatchFrame(nil, 2, []int{0, 1, 2}))
	f.Add(appendErrFrame(nil, 3, OpPublish, "boom"))
	// The notification: of one id, of two, without ids, announcing more ids
	// than the payload holds, and with its last id cut short.
	f.Add(appendNotifyGroupFrame(nil, 7, []float64{41, 10}, []string{"hot"}))
	group := appendNotifyGroupFrame(nil, 7, []float64{41, 10}, []string{"hot", "dry"})
	f.Add(group)
	f.Add(appendNotifyGroupFrame(nil, 7, []float64{41, 10}, nil))
	f.Add(finishFrame(appendU32(appendVec(appendU64(append([]byte(nil), 0, 0, 0, 0, frameNotifyGroup), 7), []float64{41, 10}), 1<<20), 0))
	f.Add(finishFrame(append([]byte(nil), group[:len(group)-2]...), 0))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 2, 0x01})

	f.Fuzz(func(t *testing.T, raw []byte) {
		var buf []byte
		typ, payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)), &buf)
		if err != nil {
			return
		}
		in := &inbound{}
		if cid, req, err := decodeRequestFrame(typ, payload, in); err == nil {
			// Re-encoding reads the request's vectors, decoding it again
			// overwrites the read scratch they alias: detach them first.
			req.Vals = slices.Clone(req.Vals)
			enc, err := appendRequest(nil, cid, req)
			if err != nil {
				t.Fatalf("accepted request %+v does not re-encode: %v", req, err)
			}
			typ2, payload2, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)), &buf)
			if err != nil {
				t.Fatalf("re-encoded request frame does not read: %v", err)
			}
			cid2, again, err := decodeRequestFrame(typ2, payload2, in)
			if err != nil {
				t.Fatalf("re-encoded request frame does not decode: %v", err)
			}
			a, _ := json.Marshal(namedRequest(sch, req))
			b, _ := json.Marshal(namedRequest(sch, again))
			if !bytes.Equal(a, b) || cid2 != cid {
				t.Fatalf("request round trip drifted (cid %d→%d):\n  first  %s\n  second %s", cid, cid2, a, b)
			}
		}
		if cid, resp, err := decodeResponseFrame(typ, payload, in); err == nil {
			enc, err := appendResponse(nil, cid, resp)
			if err != nil {
				t.Fatalf("accepted response %+v does not re-encode: %v", resp, err)
			}
			typ2, payload2, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)), &buf)
			if err != nil {
				t.Fatalf("re-encoded response frame does not read: %v", err)
			}
			cid2, again, err := decodeResponseFrame(typ2, payload2, &inbound{})
			if err != nil {
				t.Fatalf("re-encoded response frame does not decode: %v", err)
			}
			a, _ := json.Marshal(namedResponse(sch, resp))
			b, _ := json.Marshal(namedResponse(sch, again))
			if !bytes.Equal(a, b) || cid2 != cid || !slices.Equal(resp.IDs, again.IDs) {
				t.Fatalf("response round trip drifted (cid %d→%d):\n  first  %s\n  second %s", cid, cid2, a, b)
			}
		}
	})
}
