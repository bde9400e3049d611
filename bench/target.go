package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"time"

	"genas"
	"genas/internal/broker"
	"genas/internal/federation"
	"genas/internal/wire"
)

// subBuffer is the notification buffer of every in-process subscription.
const subBuffer = 16

// target is the system under test as the end-to-end run sees it: a thing to
// subscribe at, publish to and read filter counters from.
type target interface {
	subscribe(i int) error
	unsubscribe(i int) error
	// ready returns once every installed subscription is reachable from
	// the publisher.
	ready() error
	// publishRange publishes plan events [lo, lo+n) and returns how many
	// notifications they must produce in total.
	publishRange(lo, n, head int) (int, error)
	// chunk is how many events one publishRange call should carry, and
	// windowed whether the publisher must see their notifications before
	// sending the next chunk.
	chunk() int
	windowed() bool
	counters() counters
	close()
}

// counters are a target's running totals, summed over its brokers.
type counters struct {
	ops, events  uint64 // comparison operations and filtered events: the paper's metric
	dropped      uint64 // notifications a broker discarded
	restructures int    // adaptive restructures
}

// newTarget starts the workload's system under test.
func newTarget(w *workload, in *inputs, col *collector, log *sampleLog) (target, error) {
	// Two returns each: a nil *fedTarget must not become a non-nil target.
	if w.fed {
		t, err := newFedTarget(in, col, log)
		if err != nil {
			return nil, err
		}
		return t, nil
	}
	t, err := newSvcTarget(w, in, col, log)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// svcTarget is one in-process genas.Service; subscribers are SubHandler
// callbacks with SubBlocking, so nothing may be dropped.
type svcTarget struct {
	svc  *genas.Service
	in   *inputs
	col  *collector
	log  *sampleLog
	step int
}

func newSvcTarget(w *workload, in *inputs, col *collector, log *sampleLog) (*svcTarget, error) {
	var opts []genas.Option
	if w.options != nil {
		opts = w.options()
	}
	svc, err := genas.NewService(newSchema(), opts...)
	if err != nil {
		return nil, err
	}
	step := 1024
	if w.churnEvery > 0 {
		step = w.churnEvery
	}
	return &svcTarget{svc: svc, in: in, col: col, log: log, step: step}, nil
}

func (t *svcTarget) subscribe(i int) error {
	_, err := t.svc.Subscribe(t.in.ids[i], t.in.profiles[i],
		genas.SubHandler(func(n genas.Notification) { t.col.deliver(n.Event.Seq, i) }),
		genas.SubBlocking(), genas.SubBuffer(subBuffer))
	return err
}

func (t *svcTarget) unsubscribe(i int) error { return t.svc.Unsubscribe(t.in.ids[i]) }
func (t *svcTarget) ready() error            { return nil }

func (t *svcTarget) publishRange(lo, n, head int) (int, error) {
	matched := 0
	for k := lo; k < lo+n; k++ {
		idx := k % len(t.in.plan)
		t.log.note(idx, head)
		m, err := t.svc.PublishValues(t.in.plan[idx]...)
		if err != nil {
			return matched, err
		}
		matched += m
	}
	return matched, nil
}

func (t *svcTarget) chunk() int     { return t.step }
func (t *svcTarget) windowed() bool { return false }

func (t *svcTarget) counters() counters {
	st := t.svc.Stats()
	return counters{ops: st.FilterOps, events: st.FilterEvents, dropped: st.Dropped, restructures: st.Restructures}
}

func (t *svcTarget) close() { t.svc.Close() }

// daemon is one in-process genasd: broker, wire server and federation node
// on a loopback listener, wired as cmd/genasd wires them.
type daemon struct {
	brk  *broker.Broker
	srv  *wire.Server
	fed  *federation.Fed
	addr string
	done chan error
}

func startDaemon(sch *genas.Schema, node string, opts broker.Options) (*daemon, error) {
	brk, err := broker.New(sch, opts)
	if err != nil {
		return nil, err
	}
	d := &daemon{brk: brk, srv: wire.NewServer(brk, nil), done: make(chan error, 1)}
	if node != "" {
		d.fed, err = federation.New(brk, federation.Options{Node: node, Covering: true})
		if err != nil {
			brk.Close()
			return nil, err
		}
		d.srv.SetOverlay(d.fed)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.addr = ln.Addr().String()
	go func() { d.done <- d.srv.Serve(context.Background(), ln) }()
	return d, nil
}

func (d *daemon) stop() {
	d.srv.Close()
	if d.addr != "" {
		<-d.done
	}
	if d.fed != nil {
		d.fed.Close()
	}
	d.brk.Close()
}

// startChain starts n federated daemons on loopback, each dialing its
// predecessor: chain[0] - chain[1] - ... - chain[n-1]. It returns once
// both ends of every link are attached and speak wire v2.
func startChain(sch *genas.Schema, n int, opts broker.Options) ([]*daemon, error) {
	var ds []*daemon
	for i := 0; i < n; i++ {
		d, err := startDaemon(sch, string(rune('A'+i)), opts)
		if err == nil && i > 0 {
			err = d.fed.Dial(ds[i-1].addr)
		}
		if d != nil {
			ds = append(ds, d)
		}
		if err != nil {
			stopChain(ds)
			return nil, err
		}
	}
	// The accepting side of a link attaches in its server goroutine.
	deadline := time.Now().Add(10 * time.Second)
	for i, d := range ds {
		links := min(i, 1) + min(n-1-i, 1)
		if !poll(deadline, func() bool { return d.fed.ProtoV2Peers() == links }) {
			stopChain(ds)
			return nil, fmt.Errorf("daemon %s: %d of %d links negotiated wire v2", d.fed.Node(), d.fed.ProtoV2Peers(), links)
		}
	}
	return ds, nil
}

// poll waits for cond to hold, giving up at the deadline.
func poll(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

func stopChain(ds []*daemon) {
	for i := len(ds) - 1; i >= 0; i-- {
		ds[i].stop()
	}
}

// routesConverged waits until every link towards the subscriber end holds
// `routes` covering roots, i.e. until an event published at chain[0] is
// forwarded exactly when a subscription at the far end matches it.
func routesConverged(ds []*daemon, routes int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i := 0; i+1 < len(ds); i++ {
		count := func() int { return ds[i].fed.RouteCount(ds[i+1].fed.Node()) }
		if !poll(deadline, func() bool { return count() == routes }) {
			return fmt.Errorf("routes %s->%s: %d, want %d", ds[i].fed.Node(), ds[i+1].fed.Node(), count(), routes)
		}
	}
	return nil
}

// fedBatch is the publisher's batch size on fed-2hop. The window is one
// batch: at most fedBatch*fedCopies = 256 notifications are in flight,
// which is the capacity of the client's notification buffers, so the
// drop-when-lagging policy of Client.Notifications can never fire.
const fedBatch = 64

// fedTarget is fed-2hop: daemons A-B-C, one publisher connection at A, one
// subscriber connection at C, both through the public genas.Dial.
type fedTarget struct {
	chain     []*daemon
	pub, sub  *genas.Client
	in        *inputs
	expect    []uint8 // notifications each plan event must produce at C
	log       *sampleLog
	maps      []map[string]float64
	published uint64
	drained   chan struct{}
}

func newFedTarget(in *inputs, col *collector, log *sampleLog) (*fedTarget, error) {
	chain, err := startChain(newSchema(), 3, broker.Options{})
	if err != nil {
		return nil, err
	}
	t := &fedTarget{chain: chain, in: in, expect: in.owedAll(), log: log, drained: make(chan struct{})}
	dial := func(addr string) (*genas.Client, error) {
		return genas.Dial(addr, genas.WithProtocol(genas.V2), genas.WithDialTimeout(10*time.Second))
	}
	if t.pub, err = dial(chain[0].addr); err == nil {
		t.sub, err = dial(chain[2].addr)
	}
	if err != nil {
		close(t.drained)
		t.close()
		return nil, err
	}
	go func() {
		defer close(t.drained)
		for n := range t.sub.Notifications() {
			i, err := strconv.Atoi(n.Profile[1:])
			if err != nil {
				i = -1 // not one of ours: fails the oracle check
			}
			col.deliver(n.Seq, i)
		}
	}()
	t.maps = make([]map[string]float64, fedBatch)
	for i := range t.maps {
		t.maps[i] = make(map[string]float64, nAttrs)
	}
	return t, nil
}

func (t *fedTarget) subscribe(i int) error   { return t.sub.Subscribe(t.in.ids[i], t.in.profiles[i], 0) }
func (t *fedTarget) unsubscribe(i int) error { return t.sub.Unsubscribe(t.in.ids[i]) }

// ready waits for the subscriptions' routes to reach A. Routes travel in
// subscription order, and a link's root count alone cannot tell whether a
// template is present or only one of its refinements; so a last
// subscription that no event matches and nothing covers goes in, and the
// links are complete when they hold its root too.
func (t *fedTarget) ready() error {
	never := box{tLo: tempLo + 13.5, tHi: tempLo + 14.5, hLo: humLo, hHi: humHi, fLo: -1}
	if err := t.sub.Subscribe("ready", never.text(), 0); err != nil {
		return err
	}
	return routesConverged(t.chain, fedTemplates+1, 10*time.Second)
}

func (t *fedTarget) reach(idx, head int) int {
	e := int(t.expect[idx])
	if e > 0 { // only forwarded events get a sequence number at C
		t.log.note(idx, head)
	}
	return e
}

func (t *fedTarget) publishRange(lo, n, head int) (int, error) {
	t.published += uint64(n)
	if n == 1 {
		idx := lo % len(t.in.plan)
		_, err := t.pub.PublishValues(t.in.plan[idx]...)
		return t.reach(idx, head), err
	}
	want := 0
	for k := 0; k < n; k++ {
		idx := (lo + k) % len(t.in.plan)
		want += t.reach(idx, head)
		for a, v := range t.in.plan[idx] {
			t.maps[k][attrNames[a]] = v
		}
	}
	_, err := t.pub.PublishBatch(t.maps[:n])
	return want, err
}

func (t *fedTarget) chunk() int     { return fedBatch }
func (t *fedTarget) windowed() bool { return true }

func (t *fedTarget) counters() counters {
	// Operations per event published at A, whichever daemons it reached.
	// The daemons run without the adaptor.
	c := counters{events: t.published}
	for _, d := range t.chain {
		st := d.brk.Stats()
		c.ops += st.FilterOps
		c.dropped += st.Dropped
	}
	return c
}

func (t *fedTarget) close() {
	if t.pub != nil {
		_ = t.pub.Close()
	}
	if t.sub != nil {
		_ = t.sub.Close()
	}
	<-t.drained
	stopChain(t.chain)
}
