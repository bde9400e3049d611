package federation_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"genas/internal/wire"
)

// liveHeap returns the bytes the heap holds after two collections (the
// second empties what sync.Pool's victim cache kept through the first).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPeerLinkReadsThroughASmallReader: a peer link reads through the
// standard 4 KiB bufio.Reader whatever it is sent. Over a schema whose
// rendering outgrows that reader, a dialled link completes its handshake
// (each end reads the other's long hello), carries a route and forwards an
// event.
func TestPeerLinkReadsThroughASmallReader(t *testing.T) {
	attrs := []string{"temperature=numeric[-30,50]"}
	for a := 0; a < 12; a++ {
		labels := make([]string, 40)
		for l := range labels {
			labels[l] = fmt.Sprintf("label_%02d_%02d", a, l)
		}
		attrs = append(attrs, fmt.Sprintf("attr%02d=cat{%s}", a, strings.Join(labels, ",")))
	}
	spec := strings.Join(attrs, "; ")
	if len(spec) <= 4096 {
		t.Fatalf("the schema renders to %d bytes, want more than the reader's 4096", len(spec))
	}
	a := startDaemon(t, "A", spec)
	b := startDaemon(t, "B", spec, a.addr)
	sub := dial(t, b.addr)
	if err := sub.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the route at A", func() bool { return a.fed.RouteCount("B") == 1 })
	vals := make([]float64, len(attrs))
	vals[0] = 41
	if _, err := dial(t, a.addr).PublishVals(vals, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.Notifications():
		if n.Profile != "hot" || n.Event["temperature"] != 41 {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(rpcTimeout):
		t.Fatal("no notification across the link")
	}
}

// TestPeerConnectionHeldBytes pins what one peer link costs at rest: the
// dialled end and the accepted end of an A–B link, past the handshake and
// the route replay, hold at most 32 KiB of heap between them — two 4 KiB
// readers, two outboxes and the link records. (With a 64 KiB reader at each
// end a pair held ≈ 135 KB.) The goroutines' stacks are not counted: one
// link's few reuse the stacks the warm-up's goroutines left free, so their
// cost shows only in TestConnectionHeldBytes's 32 connections.
func TestPeerConnectionHeldBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes do not hold under the race detector")
	}
	a := startDaemon(t, "A", testSpec)
	b := startDaemon(t, "B", testSpec)
	// The first link fills what the process keeps once (the JSON codecs'
	// caches, the log's buffers).
	startDaemon(t, "C", testSpec, a.addr)
	waitFor(t, "C at A", func() bool { _, peers, _, _ := a.fed.Stats(); return peers == 1 })
	heap0 := liveHeap()
	if err := b.fed.Dial(a.addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B at A", func() bool { _, peers, _, _ := a.fed.Stats(); return peers == 2 })
	held := liveHeap() - heap0
	t.Logf("an A–B link pair holds %d bytes of heap", held)
	if held > 32<<10 {
		t.Errorf("an A–B link pair holds %d bytes of heap, want at most %d", held, 32<<10)
	}
}

// TestRefusedForwardLeavesTheScratch: a forward the link refuses, here one of
// 100 000 values over a two-attribute schema, does not become the decode
// scratch a link keeps for its life; the valid forward after it decodes into
// a scratch of its own size.
func TestRefusedForwardLeavesTheScratch(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	payload := func(vals []float64) []byte { return wire.AppendForwardFrame(nil, vals)[5:] } // past length and type
	kept := a.fed.ForwardScratch("Z", payload(make([]float64, 100_000)), payload([]float64{41, 10}))
	const bound = 64 // values
	if len(kept) != 2 || cap(kept) > bound {
		t.Errorf("after a refused 100 000-value forward and a valid one the link keeps a scratch of %d values (cap %d), want 2 (cap at most %d)", len(kept), cap(kept), bound)
	}
}
