// Command genasd runs the GENAS event notification daemon: a TCP broker
// speaking the wire protocol (one JSON hello line, then binary frames). The attribute schema is defined at
// startup; profiles, events and quench queries arrive at runtime.
//
// Usage:
//
//	genasd -addr :7452 \
//	       -schema 'temperature=numeric[-30,50]; humidity=numeric[0,100]; radiation=numeric[1,100]' \
//	       -adaptive -measure event -attrs A2 -shards 8 \
//	       -defaults 'radiation=1'
//
// Several daemons form a broker federation (an acyclic overlay) by naming
// themselves and dialing peers:
//
//	genasd -addr :7452 -schema '…' -node A
//	genasd -addr :7453 -schema '…' -node B -peer localhost:7452
//	genasd -addr :7454 -schema '…' -node C -peer localhost:7453
//
// Profiles propagate between daemons and an event crosses a TCP link only
// when that link's routing filter matches it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"genas"
	"genas/internal/adaptive"
	"genas/internal/federation"
	"genas/internal/hook"
	"genas/internal/tree"
	"genas/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run starts the daemon. If ready is non-nil, the bound listener address is
// sent on it once the daemon is accepting connections (test hook).
func run(args []string, stderr io.Writer, ready chan<- net.Addr) int {
	fs := flag.NewFlagSet("genasd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":7452", "TCP listen address")
		schemaSpec = fs.String("schema", "", "schema spec, e.g. 'temp=numeric[-30,50]; state=cat{ok,alarm}'")
		adaptiveOn = fs.Bool("adaptive", false, "enable adaptive tree restructuring")
		goal       = fs.String("goal", "event", "adaptive goal: event | user")
		window     = fs.Int("window", 1024, "events between drift checks, and the length of the history a check reads")
		threshold  = fs.Float64("threshold", 0.1, "total-variation drift threshold")
		measure    = fs.String("measure", "natural", "value measure: natural | event | profile | event*profile")
		attrs      = fs.String("attrs", "natural", "attribute ordering: natural | A1 | A2 | A3")
		search     = fs.String("search", tree.DefaultSearch.String(), "node search: weighted | linear | binary | interpolation | hash")
		shards     = fs.Int("shards", 1, "engine/delivery shard count (0 = GOMAXPROCS, 1 = single tree)")
		defaults   = fs.String("defaults", "", "fill-ins for omitted event attributes, e.g. 'radiation=1; humidity=0'")
		node       = fs.String("node", "", "federation node name (required with -peer; enables broker peering)")
		peer       = fs.String("peer", "", "comma-separated peer daemon addresses to dial, e.g. 'host1:7452,host2:7452'")
		covering   = fs.Bool("covering", true, "count only uncovered routes per peer link (federation; link filters index only those either way)")
		_          = fs.Bool("aggregate", false, "no effect, accepted for old command lines: canonical subscription aggregation is the only index")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger := log.New(stderr, "genasd: ", log.LstdFlags)
	if *schemaSpec == "" {
		logger.Print("missing -schema")
		return 2
	}
	sch, err := genas.ParseSchema(*schemaSpec)
	if err != nil {
		logger.Printf("bad schema: %v", err)
		return 2
	}

	if *shards < 0 {
		logger.Printf("bad -shards %d", *shards)
		return 2
	}
	opts := []genas.Option{
		genas.WithValueMeasure(*measure),
		genas.WithAttrOrdering(*attrs),
		genas.WithSearch(*search),
		genas.WithShards(*shards),
	}
	if *adaptiveOn {
		opts = append(opts, genas.WithAdaptivePolicy(*window, *threshold, false))
		if *goal == "user" {
			opts = append(opts, genas.WithUserCentricAdaptive())
		}
	}
	if *defaults != "" {
		byAttr, err := parseDefaults(*defaults)
		if err != nil {
			logger.Printf("bad -defaults: %v", err)
			return 2
		}
		opts = append(opts, genas.WithDefaults(byAttr))
	}
	svc, err := genas.NewService(sch, opts...)
	if err != nil {
		// Option errors (unknown measure, ordering, search, bad defaults)
		// are configuration mistakes, same exit class as flag errors.
		logger.Printf("service: %v", err)
		return 2
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return 1
	}
	logger.Printf("listening on %s with schema %s (%d shards)", ln.Addr(), sch, hook.BrokerOf(svc).Shards())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The wire server programs against the broker; the internal hook hands
	// it over without the facade growing a public escape hatch.
	srv := wire.NewServer(hook.BrokerOf(svc), logger)
	srv.SetDefaults(hook.DefaultsOf(svc))
	defer srv.Close()

	var fed *federation.Fed
	if *node != "" || *peer != "" {
		if *node == "" {
			logger.Print("-peer requires -node")
			_ = ln.Close()
			return 2
		}
		fed, err = federation.New(hook.BrokerOf(svc), federation.Options{
			Node:     *node,
			Covering: *covering,
			Logger:   logger,
		})
		if err != nil {
			logger.Printf("federation: %v", err)
			_ = ln.Close()
			return 2
		}
		srv.SetOverlay(fed)
		defer fed.Close()
		// Peers are dialed with retry in the background: a chain can boot in
		// any order, and route replay on connect converges the overlay.
		for _, addr := range strings.Split(*peer, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				fed.DialRetry(addr)
			}
		}
	}
	// On shutdown, disconnect clients too: canceling the context only stops
	// the accept loop, and Serve waits for connected clients otherwise.
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if a := hook.BrokerOf(svc).Adaptor(); a != nil {
		logged := make(chan struct{})
		go func() {
			defer close(logged)
			logRestructures(ctx, a, sch, logger)
		}()
		defer func() {
			stop()
			<-logged
		}()
	}

	// Readiness is announced only after the signal handler is installed: a
	// caller may send SIGTERM the moment it learns the address, and before
	// NotifyContext runs that signal would hit the default disposition and
	// kill the process.
	if ready != nil {
		ready <- ln.Addr()
	}
	if err := srv.Serve(ctx, ln); err != nil {
		logger.Printf("serve: %v", err)
		return 1
	}
	logger.Print("shut down")
	return 0
}

// logRestructures writes one line per adaptive restructure, read from the
// adaptor's decision ring once a second and a last time when ctx ends.
func logRestructures(ctx context.Context, a *adaptive.Adaptor, sch *genas.Schema, logger *log.Logger) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last := 0
	for running := true; running; {
		select {
		case <-ctx.Done():
			running = false
		case <-tick.C:
		}
		for _, d := range a.Decisions() {
			if d.Seq <= last {
				continue
			}
			if d.Seq > last+1 {
				logger.Printf("adaptive: restructures %d to %d left the decision ring unlogged", last+1, d.Seq-1)
			}
			last = d.Seq
			var drift strings.Builder
			for _, i := range d.Reordered {
				fmt.Fprintf(&drift, " %s tv=%.3f floor=%.3f", sch.At(i).Name, d.TV[i], d.Floor[i])
			}
			if d.Err != nil {
				fmt.Fprintf(&drift, "; failed: %v", d.Err)
			}
			logger.Printf("adaptive: restructure %d after %d events in %v: nodes re-sorted %d, path-copied %d, the rest shared; reordered for%s",
				d.Seq, d.Seen, d.Duration, d.Resorted, d.Copied, drift.String())
		}
	}
}

// parseDefaults reads the -defaults spec: 'attr=value; attr=value'.
func parseDefaults(spec string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("missing '=' in %q", part)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(part[eq+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q", part)
		}
		out[strings.TrimSpace(part[:eq])] = v
	}
	return out, nil
}
