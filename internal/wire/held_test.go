package wire

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// liveBytes returns the bytes the heap holds after two collections (the
// second empties what sync.Pool's victim cache kept through the first), and
// the bytes of goroutine stacks in use.
func liveBytes() (heap, stacks int64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc), int64(ms.StackInuse)
}

// wideSpec is a schema whose hello answer outgrows a 4 KiB reader: one
// numeric attribute and twelve categorical ones of forty labels each.
func wideSpec() string {
	attrs := []string{"temperature=numeric[-30,50]"}
	for a := 0; a < 12; a++ {
		labels := make([]string, 40)
		for l := range labels {
			labels[l] = fmt.Sprintf("label_%02d_%02d", a, l)
		}
		attrs = append(attrs, fmt.Sprintf("attr%02d=cat{%s}", a, strings.Join(labels, ",")))
	}
	return strings.Join(attrs, "; ")
}

// TestConnectionReadsThroughASmallReader: a connection reads through the
// standard 4 KiB bufio.Reader whatever it is sent. The client reads a hello
// answer longer than that, the session a request frame of close to MaxFrame
// (a subscription id that long), and the client its reply and the
// notification naming it, each as long; the connection then serves on.
func TestConnectionReadsThroughASmallReader(t *testing.T) {
	addr, brk := startSpecServer(t, wideSpec(), nil)
	hello, err := EncodeLine(Response{Type: MsgOK, Op: OpHello, Proto: int(ProtoV2), Attributes: (&Server{brk: brk}).schemaPayload()})
	if err != nil || len(hello) <= 4096 {
		t.Fatalf("the hello answer is %d bytes (%v), want more than the reader's 4096", len(hello), err)
	}
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if n := c.HelloSchema().N(); n != 13 {
		t.Fatalf("the client rebuilt %d attributes from the hello, want 13", n)
	}

	id := strings.Repeat("i", MaxFrame-1024)
	if err := c.Subscribe(id, "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatalf("subscribe under a %d-byte id: %v", len(id), err)
	}
	vals := make([]float64, c.HelloSchema().N())
	vals[0] = 41
	if matched, err := c.PublishVals(vals, rpcTimeout); err != nil || matched != 1 {
		t.Fatalf("publish = %d, %v", matched, err)
	}
	select {
	case n := <-c.Notifications():
		if n.Profile != id || n.Event["temperature"] != 41 {
			t.Errorf("notification for a %d-byte id, temperature %v", len(n.Profile), n.Event["temperature"])
		}
	case <-time.After(rpcTimeout):
		t.Fatal("no notification")
	}
	if err := c.Unsubscribe(id, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatal(err)
	}
}

// TestConnectionHeldBytes pins what a connection costs at rest: a client and
// its server session, dialled and past one round trip, hold at most 32 KiB
// of heap between them — two 4 KiB readers, the client's notification
// channel and the small records of either end. (With a 64 KiB reader at
// each end a pair held ≈ 146 KB.) The four goroutines' stacks come on top,
// logged, not pinned.
func TestConnectionHeldBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes do not hold under the race detector")
	}
	addr := startServer(t)
	roundTrip := func() *Client {
		c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stats(rpcTimeout); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// The first round trip fills what the process keeps once (the JSON
	// codecs' caches, the waiter pool).
	_ = roundTrip().Close()
	const clients = 32
	heap0, stacks0 := liveBytes()
	cs := make([]*Client, clients)
	for i := range cs {
		cs[i] = roundTrip()
	}
	heap, stacks := liveBytes()
	per := (heap - heap0) / clients
	for _, c := range cs {
		_ = c.Close()
	}
	t.Logf("a client and its session hold %d bytes of heap and %d of goroutine stacks", per, (stacks-stacks0)/clients)
	if per > 32<<10 {
		t.Errorf("a client and its session hold %d bytes of heap, want at most %d", per, 32<<10)
	}
}
