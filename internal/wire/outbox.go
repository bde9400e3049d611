package wire

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"genas/internal/broker"
)

// writeTimeout bounds every write to a connection: the module's one deadline.
const writeTimeout = 10 * time.Second

// Outbox is a connection's one outbound path, a client's, a client session's
// and a peer link's alike: frames gather in one buffer, which a single writer
// goroutine swaps out and sends in one conn.Write, outside every lock, under
// writeTimeout. One rule governs it: a write that misses its deadline
// disconnects; while the writer is behind, an event frame that finds the
// budget full is dropped and counted; requests, replies, the hello and route
// messages are never dropped. A peer link's forwards wait in the buffer
// (SendEvent); a session's notifications wait in its broker.Queue, which the
// writer drains.
type Outbox struct {
	conn   net.Conn
	log    *log.Logger
	budget int
	wake   chan struct{} // cap 1: something is queued, or Close was called
	room   chan struct{} // cap 1: the writer took the buffer
	done   chan struct{} // closed when the writer exits

	mu       sync.Mutex
	buf      []byte
	events   int  // event frames in buf
	dropping bool // a drop was logged, and the writer has not caught up since
	closed   bool
	notes    <-chan broker.Notification // a session's queue, once it subscribes
}

// NewOutbox starts the writer of conn. budget bounds the event frames waiting
// for it; logger hears of drops and failed writes.
func NewOutbox(conn net.Conn, budget int, logger *log.Logger) *Outbox {
	o := &Outbox{conn: conn, log: logger, budget: budget, wake: make(chan struct{}, 1), room: make(chan struct{}, 1), done: make(chan struct{})}
	go o.run()
	return o
}

// Send queues a frame that is never dropped: a reply, a hello, a route.
func (o *Outbox) Send(b []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf = append(o.buf, b...)
	poke(o.wake)
}

// SendEvent queues an event frame unless budget of them wait already or the
// outbox is closed, and reports whether it did.
func (o *Outbox) SendEvent(b []byte) bool {
	o.mu.Lock()
	ok := !o.closed && o.events < o.budget
	first := !ok && !o.closed && !o.dropping
	o.dropping = o.dropping || !ok
	if ok {
		o.events++
		o.buf = append(o.buf, b...)
		poke(o.wake)
	}
	o.mu.Unlock()
	if first {
		o.log.Printf("wire: %s cannot keep up: %d event frames wait; dropping the newest", o.conn.RemoteAddr(), o.budget)
	}
	return ok
}

// backlog is how many queued bytes make a request or a reply wait for the
// writer first: a peer that stops reading stops being read, and a client that
// stops being read stops sending.
const backlog = 64 << 10

// makeRoom waits while more than backlog bytes are queued, until the writer
// takes them or exits or timeout fires (a nil timeout never does), and
// reports whether it did not time out.
func (o *Outbox) makeRoom(timeout <-chan time.Time) bool {
	for waited := false; ; waited = true {
		o.mu.Lock()
		full := len(o.buf) > backlog
		o.mu.Unlock()
		if !full {
			if waited {
				poke(o.room) // the writer wakes one waiter: pass the turn on
			}
			return true
		}
		select {
		case <-o.room:
		case <-o.done:
			return true
		case <-timeout:
			return false
		}
	}
}

// reply queues a session's reply, encoded in place once there is room.
func (o *Outbox) reply(cid uint32, resp Response) error {
	o.makeRoom(nil)
	o.mu.Lock()
	defer o.mu.Unlock()
	b, err := appendResponse(o.buf, cid, resp)
	if err == nil {
		o.buf = b
		poke(o.wake)
	}
	return err
}

// request queues a client's request under cid, encoded in place; the caller
// made room first. It fails once the outbox is closed, and leaves nothing
// queued when the frame would exceed MaxFrame.
func (o *Outbox) request(cid uint32, req Request) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return errConnClosed
	}
	mark := len(o.buf)
	b, err := appendRequest(o.buf, cid, req)
	if err != nil {
		return err
	}
	if n := len(b) - mark; n > MaxFrame {
		o.buf = b[:mark]
		return fmt.Errorf("%w: request encodes to %d bytes", ErrFrameTooBig, n)
	}
	o.buf = b
	poke(o.wake)
	return nil
}

// notify hands the writer the session's notification queue.
func (o *Outbox) notify(q <-chan broker.Notification) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.notes = q
}

// Pending reports the bytes waiting for the writer, and the event frames.
func (o *Outbox) Pending() (bytes, events int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.buf), o.events
}

// Close ends the writer once it has sent what is queued and drained the
// session's notification queue, which must be closed; nothing may be queued
// after it. The channel it returns closes when the writer has exited.
func (o *Outbox) Close() <-chan struct{} {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closed = true
	poke(o.wake)
	return o.done
}

// poke leaves a token in ch unless one waits there already.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// run is the writer: it swaps the buffer out, adds notifications, writes.
func (o *Outbox) run() {
	defer close(o.done)
	var out []byte
	var ids []string
	var notes <-chan broker.Notification // nil until taken up, and once drained
	drained := false
	for {
		var n broker.Notification
		var got bool
		select {
		case <-o.wake:
		case n, got = <-notes:
			drained = !got
		}
		o.mu.Lock()
		out, o.buf = o.buf, out[:0]
		poke(o.room)
		o.dropping = o.dropping && o.events >= o.budget // still behind: one log line
		o.events = 0
		if notes = o.notes; drained {
			notes = nil
		}
		closing := o.closed
		o.mu.Unlock()
		if got {
			out, ids = appendNotes(out, n, notes, ids)
		}
		if len(out) > 0 {
			_ = o.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := o.conn.Write(out); err != nil {
				_ = o.conn.Close()
				if !errors.Is(err, net.ErrClosed) {
					o.log.Printf("wire: write to %s: %v", o.conn.RemoteAddr(), err)
				}
				o.Close()
				return
			}
		}
		if closing && notes == nil {
			return
		}
	}
}

// appendNotes encodes n and whatever else waits in q, which nobody else
// receives from: a burst costs one wake-up and one write. Consecutive
// notifications of one event (one Seq) become one frame listing their ids.
func appendNotes(out []byte, n broker.Notification, q <-chan broker.Notification, ids []string) ([]byte, []string) {
	for rest := len(q); ; rest-- {
		ids = append(ids, string(n.Profile))
		next := n
		if rest > 0 {
			next = <-q
		}
		if rest == 0 || next.Event.Seq != n.Event.Seq {
			out = appendNotifyGroupFrame(out, n.Event.Seq, n.Event.Vals, ids)
			ids = ids[:0]
		}
		if rest == 0 {
			return out, ids
		}
		n = next
	}
}
