// Federation: three brokers in a chain A—B—C, peered over TCP with the wire
// protocol's peer frames — the process-level twin of the brokernet example.
// A profile subscribed at daemon C propagates hop by hop to daemon A, and an
// event published at A crosses a wire only when the link's routing filter
// matches: the middle hop's filtered counter proves events are rejected as
// early as possible (paper §5).
//
// The three daemons here run in-process to keep the example self-contained;
// each trio of broker + wire server + federation overlay is exactly what one
// genasd process runs. The equivalent deployment is:
//
//	genasd -addr :7452 -schema '…' -node A
//	genasd -addr :7453 -schema '…' -node B -peer localhost:7452
//	genasd -addr :7454 -schema '…' -node C -peer localhost:7453
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"genas"
	"genas/internal/federation"
	"genas/internal/hook"
	"genas/internal/wire"
)

const rpcTimeout = 5 * time.Second

// daemon is one genasd twin: a broker serving the wire protocol with a
// federation overlay attached.
type daemon struct {
	fed  *federation.Fed
	addr string
	stop func()
}

func startDaemon(sch *genas.Schema, node string, peers ...string) (*daemon, error) {
	svc, err := genas.NewService(sch)
	if err != nil {
		return nil, err
	}
	brk := hook.BrokerOf(svc)
	fed, err := federation.New(brk, federation.Options{Node: node, Covering: true})
	if err != nil {
		svc.Close()
		return nil, err
	}
	srv := wire.NewServer(brk, nil)
	srv.SetOverlay(fed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fed.Close()
		svc.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ctx, ln)
	}()
	d := &daemon{fed: fed, addr: ln.Addr().String()}
	d.stop = func() {
		fed.Close()
		cancel()
		srv.Close()
		<-serveDone
		svc.Close()
	}
	for _, p := range peers {
		if err := fed.Dial(p); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sch := genas.MustSchema(
		genas.Attr("temperature", genas.MustNumericDomain(-30, 50)),
		genas.Attr("humidity", genas.MustNumericDomain(0, 100)),
	)

	// The chain A—B—C: each daemon dials its upstream neighbor.
	a, err := startDaemon(sch, "A")
	if err != nil {
		return err
	}
	defer a.stop()
	b, err := startDaemon(sch, "B", a.addr)
	if err != nil {
		return err
	}
	defer b.stop()
	c, err := startDaemon(sch, "C", b.addr)
	if err != nil {
		return err
	}
	defer c.stop()

	// A subscriber at the far end of the chain...
	subC, err := wire.DialWith(c.addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		return err
	}
	defer func() { _ = subC.Close() }()
	if err := subC.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		return err
	}
	// ...and a local watcher at the middle hop.
	subB, err := wire.DialWith(b.addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		return err
	}
	defer func() { _ = subB.Close() }()
	if err := subB.Subscribe("humid", "profile(humidity >= 80)", 0, rpcTimeout); err != nil {
		return err
	}

	pub, err := wire.DialWith(a.addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		return err
	}
	defer func() { _ = pub.Close() }()

	// The hot route has to propagate C→B→A before a publish at A is
	// forwarded; publish until the notification crosses both wire hops.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := pub.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout); err != nil {
			return err
		}
		var done bool
		select {
		case n := <-subC.Notifications():
			fmt.Printf("C notified: %s matched temperature=%g two wire hops from the publisher\n",
				n.Profile, subC.EventMap(n)["temperature"])
			done = true
		case <-time.After(100 * time.Millisecond):
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscription at C never matched the publish at A")
		}
	}

	// This event interests only B's local watcher: it crosses A→B, then B's
	// link filter toward C rejects it — early rejection at the middle hop.
	if _, err := pub.Publish(map[string]float64{"temperature": 5, "humidity": 90}, rpcTimeout); err != nil {
		return err
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, _, _, filtered := b.fed.Stats(); filtered >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("B never early-rejected the humid event")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case n := <-subB.Notifications():
		fmt.Printf("B notified locally: %s matched humidity=%g\n", n.Profile, subB.EventMap(n)["humidity"])
	case <-time.After(5 * time.Second):
		return fmt.Errorf("B's local watcher starved")
	}

	// And an event nobody wants anywhere dies at A's own link.
	if _, err := pub.Publish(map[string]float64{"temperature": -20, "humidity": 10}, rpcTimeout); err != nil {
		return err
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, _, _, filtered := a.fed.Stats(); filtered >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("A never early-rejected the cold event")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, _, fwdA, filtA := a.fed.Stats()
	_, _, fwdB, filtB := b.fed.Stats()
	fmt.Printf("A: %d events crossed its wire, %d rejected before crossing\n", fwdA, filtA)
	fmt.Printf("B (middle hop): %d forwarded on, %d rejected at the link to C\n", fwdB, filtB)
	fmt.Println("the middle hop's filtered counter proves early rejection: wire crossings happen only where a downstream profile matches")
	return nil
}
