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

	"genas/internal/event"
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
		events := make([]map[string]float64, len(args)-1)
		for i, a := range args[1:] {
			if a == "-" {
				logger.Print("'-' (read events from stdin) must be the only pub operand")
				return 2
			}
			if events[i], err = event.Scan(c.HelloSchema(), a); err != nil {
				logger.Print(err)
				return 2
			}
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
		fb := &frameBatcher{c: c, chunk: events}
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
		if st.DroppedForwards > 0 {
			fmt.Fprintf(stdout, "forwards dropped: %d\n", st.DroppedForwards)
		}
		if st.BytesPerEventWire > 0 {
			fmt.Fprintf(stdout, "wire bytes/event: %.1f\n", st.BytesPerEventWire)
		}
		if st.FramesPipelined > 0 {
			fmt.Fprintf(stdout, "frames pipelined: %d\n", st.FramesPipelined)
		}
		return 0

	case "schema":
		// One spec line, as genasd -schema and schema.ParseSpec read it.
		fmt.Fprintln(stdout, c.HelloSchema().Spec())
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
		// Write the daemon's schema and profile corpus as an envelope to
		// stdout.
		if err := exportEnvelope(c, stdout); err != nil {
			logger.Print(err)
			return 1
		}
		return 0

	case "import":
		// Read an envelope from stdin and subscribe every profile on this
		// connection (the subscriptions live as long as the process).
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

// frameBatcher accumulates events and publishes them as a batch: the pub
// operands at once, a stdin stream every flushEvery events.
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
			ev, err := event.Scan(c.HelloSchema(), line)
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

// envelopeVersion is the version export writes and import accepts.
const envelopeVersion = 1

// envelope is the export document: a daemon's schema and its profile corpus.
type envelope struct {
	Version  int          `json:"version"`
	Schema   []attrDoc    `json:"schema"`
	Profiles []profileDoc `json:"profiles"`
}

// attrDoc is one schema attribute of an envelope.
type attrDoc struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"` // numeric | integer | categorical
	Lo     float64  `json:"lo,omitempty"`
	Hi     float64  `json:"hi,omitempty"`
	Labels []string `json:"labels,omitempty"`
}

// profileDoc is one profile of an envelope, as its profile-language
// expression: the text survives schema-compatible changes of the internal
// predicate model.
type profileDoc struct {
	ID       string  `json:"id"`
	Expr     string  `json:"expr"`
	Priority float64 `json:"priority,omitempty"`
}

// exportEnvelope writes the daemon's schema and profiles as an envelope.
func exportEnvelope(c *wire.Client, w io.Writer) error {
	attrs, err := c.Schema(rpcTimeout)
	if err != nil {
		return err
	}
	profiles, err := c.Profiles(rpcTimeout)
	if err != nil {
		return err
	}
	env := envelope{Version: envelopeVersion}
	for _, a := range attrs {
		env.Schema = append(env.Schema, attrDoc{
			Name: a.Name, Kind: a.Kind, Lo: a.Lo, Hi: a.Hi, Labels: a.Labels,
		})
	}
	for _, p := range profiles {
		env.Profiles = append(env.Profiles, profileDoc{
			ID: p.ID, Expr: p.Expr, Priority: p.Priority,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false) // keep profile operators like >= readable
	return enc.Encode(env)
}

// importEnvelope subscribes every profile of an envelope on the current
// connection and returns the count.
func importEnvelope(c *wire.Client, r io.Reader) (int, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return 0, fmt.Errorf("parse envelope: %w", err)
	}
	if env.Version != envelopeVersion {
		return 0, fmt.Errorf("unsupported envelope version %d", env.Version)
	}
	for i, p := range env.Profiles {
		if err := c.Subscribe(p.ID, p.Expr, p.Priority, rpcTimeout); err != nil {
			return i, fmt.Errorf("profile %s: %w", p.ID, err)
		}
	}
	return len(env.Profiles), nil
}

// listen prints notifications until the timeout (0 = forever), each event in
// the notation pub reads, then how many the client dropped, if any.
func listen(c *wire.Client, d time.Duration, stdout io.Writer) int {
	sch := c.HelloSchema()
	defer func() {
		if n := c.Dropped(); n > 0 {
			fmt.Fprintf(stdout, "notifications dropped: %d\n", n)
		}
	}()
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
			ev := event.Event{Vals: make([]float64, sch.N())}
			_ = event.Complete(sch, ev.Vals, n.Event, nil) // a notification names every attribute
			fmt.Fprintf(stdout, "notification #%d for %s: %s\n", n.Seq, n.Profile, ev.Render(sch))
		case <-timeout:
			return 0
		}
	}
}
