// Command genas is the GENAS client: subscribe to profiles, publish events
// (singly or batched), query quenching and statistics against a running
// genasd.
//
// Usage:
//
//	genas -addr localhost:7452 sub 'alarm' 'profile(temperature >= 35)'
//	genas -addr localhost:7452 pub 'temperature=40; humidity=90; radiation=5'
//	genas -addr localhost:7452 pub 'temperature=40; …' 'temperature=41; …'   # one batch frame
//	genas -addr localhost:7452 pub -                                         # batch from stdin, one event per line
//	genas -addr localhost:7452 quench temperature 0 10
//	genas -addr localhost:7452 stats
//	genas -addr localhost:7452 schema
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"genas/internal/codec"
	"genas/internal/wire"
)

const rpcTimeout = 5 * time.Second

// flushEvery bounds how many events the CLI buffers before publishing a
// batch, keeping streaming memory O(batch). The wire client owns the
// protocol's frame-size cap and splits oversized frames itself, so this is
// purely a memory/progress bound, not a size model.
const flushEvery = 4096

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("genas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr = fs.String("addr", "localhost:7452", "daemon address")
		wait = fs.Duration("wait", 0, "after subscribing, listen for notifications this long (0 = forever)")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "genas: ", 0)

	args := fs.Args()
	if len(args) == 0 {
		logger.Print("usage: genas [flags] sub|pub|quench|stats|schema …")
		return 2
	}

	c, err := wire.DialWith(*addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer func() { _ = c.Close() }()

	switch args[0] {
	case "sub":
		if len(args) < 3 {
			logger.Print("usage: genas sub <id> <profile-expression> [priority]")
			return 2
		}
		priority := 0.0
		if len(args) > 3 {
			priority, err = strconv.ParseFloat(args[3], 64)
			if err != nil {
				logger.Printf("bad priority: %v", err)
				return 2
			}
		}
		if err := c.Subscribe(args[1], args[2], priority, rpcTimeout); err != nil {
			logger.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "subscribed %s\n", args[1])
		return listen(c, *wait, stdout)

	case "pub":
		if len(args) < 2 {
			logger.Print("usage: genas pub 'attr=value; …' ['attr=value; …' …] | pub -")
			return 2
		}
		if len(args) == 2 && args[1] == "-" {
			return streamPublish(c, stdin, stdout, logger)
		}
		for _, a := range args[1:] {
			if a == "-" {
				logger.Print("'-' (read events from stdin) must be the only pub operand")
				return 2
			}
		}
		events, err := collectEvents(args[1:])
		if err != nil {
			logger.Print(err)
			return 2
		}
		if len(events) == 1 {
			matched, err := c.Publish(events[0], rpcTimeout)
			if err != nil {
				logger.Print(err)
				return 1
			}
			fmt.Fprintf(stdout, "matched %d profile(s)\n", matched)
			return 0
		}
		fb := &frameBatcher{c: c}
		for _, ev := range events {
			if err := fb.add(ev); err != nil {
				return fb.fail(logger, err)
			}
		}
		if err := fb.flush(); err != nil {
			return fb.fail(logger, err)
		}
		fmt.Fprintf(stdout, "published %d events, matched %d profile(s) total\n", fb.published, fb.total)
		return 0

	case "quench":
		if len(args) != 4 {
			logger.Print("usage: genas quench <attr> <lo> <hi>")
			return 2
		}
		lo, err1 := strconv.ParseFloat(args[2], 64)
		hi, err2 := strconv.ParseFloat(args[3], 64)
		if err1 != nil || err2 != nil {
			logger.Print("bad bounds")
			return 2
		}
		q, err := c.Quench(args[1], lo, hi, rpcTimeout)
		if err != nil {
			logger.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "quenched=%v\n", q)
		return 0

	case "stats":
		st, err := c.Stats(rpcTimeout)
		if err != nil {
			logger.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "subscriptions: %d\npublished: %d\ndelivered: %d\ndropped: %d\n",
			st.Subscriptions, st.Published, st.Delivered, st.Dropped)
		fmt.Fprintf(stdout, "filter events: %d\nfilter ops: %d\nmean ops/event: %.3f\n",
			st.FilterEvents, st.FilterOps, st.MeanOps)
		if st.Restructures > 0 {
			fmt.Fprintf(stdout, "adaptive restructures: %d\n", st.Restructures)
		}
		if st.Aggregated {
			fmt.Fprintf(stdout, "canonical nodes: %d\ncanonical roots: %d\nposet depth: %d\nprofiles/canonical: %.2f\n",
				st.CanonicalNodes, st.CanonicalRoots, st.PosetDepth, st.ProfilesPerCanonical)
		}
		if st.Node != "" {
			fmt.Fprintf(stdout, "federation node: %s\npeers: %d\nforwarded: %d\nrejected at links: %d\n",
				st.Node, st.Peers, st.Forwarded, st.Filtered)
		}
		if st.BytesPerEventWire > 0 {
			fmt.Fprintf(stdout, "wire bytes/event: %.1f\n", st.BytesPerEventWire)
		}
		if st.FramesPipelined > 0 {
			fmt.Fprintf(stdout, "frames pipelined: %d\n", st.FramesPipelined)
		}
		return 0

	case "schema":
		attrs, err := c.Schema(rpcTimeout)
		if err != nil {
			logger.Print(err)
			return 1
		}
		for _, a := range attrs {
			if len(a.Labels) > 0 {
				fmt.Fprintf(stdout, "%s: cat{%s}\n", a.Name, strings.Join(a.Labels, ","))
				continue
			}
			fmt.Fprintf(stdout, "%s: %s[%g,%g]\n", a.Name, a.Kind, a.Lo, a.Hi)
		}
		return 0

	case "profiles":
		profiles, err := c.Profiles(rpcTimeout)
		if err != nil {
			logger.Print(err)
			return 1
		}
		for _, p := range profiles {
			if p.Priority > 0 {
				fmt.Fprintf(stdout, "%s (priority %g): %s\n", p.ID, p.Priority, p.Expr)
				continue
			}
			fmt.Fprintf(stdout, "%s: %s\n", p.ID, p.Expr)
		}
		return 0

	case "export":
		// Write the daemon's schema and profile corpus as a codec envelope
		// to stdout.
		if err := exportEnvelope(c, stdout); err != nil {
			logger.Print(err)
			return 1
		}
		return 0

	case "import":
		// Read a codec envelope from stdin and subscribe every profile on
		// this connection (the subscriptions live as long as the process).
		n, err := importEnvelope(c, stdin)
		if err != nil {
			logger.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "imported %d profiles\n", n)
		return listen(c, *wait, stdout)

	default:
		logger.Printf("unknown command %q", args[0])
		return 2
	}
}

// collectEvents parses the pub operands into event payloads: each argument
// is one event.
func collectEvents(args []string) ([]map[string]float64, error) {
	events := make([]map[string]float64, len(args))
	for i, arg := range args {
		ev, err := parseEventArg(arg)
		if err != nil {
			return nil, err
		}
		events[i] = ev
	}
	return events, nil
}

// frameBatcher accumulates events and flushes a publish_batch every
// flushEvery events, so both pub modes (argv operands and stdin streaming)
// share one batching policy.
type frameBatcher struct {
	c         *wire.Client
	chunk     []map[string]float64
	published int
	total     int
}

// add queues one event, flushing first when the buffer is full.
func (fb *frameBatcher) add(ev map[string]float64) error {
	if len(fb.chunk) >= flushEvery {
		if err := fb.flush(); err != nil {
			return err
		}
	}
	fb.chunk = append(fb.chunk, ev)
	return nil
}

// flush publishes the pending chunk as one frame. On a frame error, counts
// the client reports as committed still accrue to published/total.
func (fb *frameBatcher) flush() error {
	if len(fb.chunk) == 0 {
		return nil
	}
	counts, err := fb.c.PublishBatch(fb.chunk, rpcTimeout)
	for _, n := range counts {
		fb.total += n
	}
	fb.published += len(counts)
	if err != nil {
		return err
	}
	fb.chunk = fb.chunk[:0]
	return nil
}

// fail reports a publish error plus how much of the batch is known to have
// landed. The failed frame itself may or may not have been committed (for
// example a response timeout after the server already processed it), so the
// count is a lower bound — stated as such, because a confident number would
// invite a retry that double-publishes.
func (fb *frameBatcher) fail(logger *log.Logger, err error) int {
	logger.Print(err)
	if fb.published > 0 {
		logger.Printf("at least %d events (matching %d profiles) were already published before the error; the failed frame may also have been committed server-side, so blindly retrying the same input can double-publish", fb.published, fb.total)
	} else {
		logger.Print("the failed frame may still have been committed server-side; check the daemon's stats before retrying")
	}
	return 1
}

// streamFlushInterval bounds how long a streamed event may sit buffered: a
// slow producer (a live pipeline emitting a few events per minute) must not
// wait for the count threshold or EOF before its events publish.
const streamFlushInterval = 250 * time.Millisecond

// streamPublish reads one event per line from stdin (empty lines skipped)
// and publishes them in publish_batch frames as the batch fills — or on an
// idle timer, so a live low-rate pipeline delivers promptly instead of
// buffering to EOF. Memory stays O(batch). A parse error aborts after
// reporting the line; frames already flushed stay published.
func streamPublish(c *wire.Client, stdin io.Reader, stdout io.Writer, logger *log.Logger) int {
	fb := &frameBatcher{c: c}

	type scanned struct {
		line string
		err  error
	}
	lines := make(chan scanned, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdin)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			lines <- scanned{line: sc.Text()}
		}
		if err := sc.Err(); err != nil {
			lines <- scanned{err: err}
		}
	}()

	ticker := time.NewTicker(streamFlushInterval)
	defer ticker.Stop()
	lineNo := 0
	for {
		select {
		case in, ok := <-lines:
			if !ok {
				if err := fb.flush(); err != nil {
					return fb.fail(logger, err)
				}
				if fb.published == 0 {
					logger.Print("no events on stdin")
					return 2
				}
				fmt.Fprintf(stdout, "published %d events, matched %d profile(s) total\n", fb.published, fb.total)
				return 0
			}
			if in.err != nil {
				return fb.fail(logger, in.err)
			}
			lineNo++
			line := strings.TrimSpace(in.line)
			if line == "" {
				continue
			}
			ev, err := parseEventArg(line)
			if err != nil {
				logger.Printf("line %d: %v", lineNo, err)
				if fb.published > 0 {
					logger.Printf("%d events were already published before the bad line", fb.published)
				}
				return 2
			}
			if err := fb.add(ev); err != nil {
				return fb.fail(logger, err)
			}
		case <-ticker.C:
			if err := fb.flush(); err != nil {
				return fb.fail(logger, err)
			}
		}
	}
}

// exportEnvelope writes the daemon's schema and profiles as a codec
// envelope.
func exportEnvelope(c *wire.Client, w io.Writer) error {
	attrs, err := c.Schema(rpcTimeout)
	if err != nil {
		return err
	}
	profiles, err := c.Profiles(rpcTimeout)
	if err != nil {
		return err
	}
	env := codec.Envelope{Version: codec.Version}
	for _, a := range attrs {
		env.Schema = append(env.Schema, codec.AttrDoc{
			Name: a.Name, Kind: a.Kind, Lo: a.Lo, Hi: a.Hi, Labels: a.Labels,
		})
	}
	for _, p := range profiles {
		env.Profiles = append(env.Profiles, codec.ProfileDoc{
			ID: p.ID, Expr: p.Expr, Priority: p.Priority,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false) // keep profile operators like >= readable
	return enc.Encode(env)
}

// importEnvelope subscribes every profile of a codec envelope on the
// current connection and returns the count.
func importEnvelope(c *wire.Client, r io.Reader) (int, error) {
	var env codec.Envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return 0, fmt.Errorf("parse envelope: %w", err)
	}
	if env.Version != codec.Version {
		return 0, fmt.Errorf("unsupported envelope version %d", env.Version)
	}
	for i, p := range env.Profiles {
		if err := c.Subscribe(p.ID, p.Expr, p.Priority, rpcTimeout); err != nil {
			return i, fmt.Errorf("profile %s: %w", p.ID, err)
		}
	}
	return len(env.Profiles), nil
}

// parseEventArg reads "attr=value; attr=value".
func parseEventArg(text string) (map[string]float64, error) {
	text = strings.TrimPrefix(strings.TrimSuffix(strings.TrimSpace(text), ")"), "event(")
	out := make(map[string]float64)
	for _, part := range strings.Split(text, ";") {
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

// listen prints notifications until the timeout (0 = forever).
func listen(c *wire.Client, d time.Duration, stdout io.Writer) int {
	var timeout <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for {
		select {
		case n, ok := <-c.Notifications():
			if !ok {
				return 0
			}
			// EventMap names the schema-order vector's values.
			ev := c.EventMap(n)
			parts := make([]string, 0, len(ev))
			for k, v := range ev {
				parts = append(parts, fmt.Sprintf("%s=%g", k, v))
			}
			fmt.Fprintf(stdout, "notification #%d for %s: %s\n", n.Seq, n.Profile, strings.Join(parts, " "))
		case <-timeout:
			return 0
		}
	}
}
