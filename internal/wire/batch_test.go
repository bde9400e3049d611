package wire

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// TestPublishBatchAllocatesOnlyItsResult pins a batched publish over a live
// session to one malloc per call on both ends together, the counts it
// returns: the server encodes its reply from session scratch, the client
// decodes each acknowledgement in place and keeps its window in pooled
// scratch. The events match nothing, so the broker carves no values. Above a
// depth of 64 the window must still hold depth frames: a server that
// acknowledges none of a batch's frames before the last has arrived
// completes it only if all of them are in flight at once.
func TestPublishBatchAllocatesOnlyItsResult(t *testing.T) {
	for _, tc := range []struct{ depth, events int }{{DefaultPipelineDepth, 64}, {100, 800}} {
		t.Run(fmt.Sprintf("depth=%d", tc.depth), func(t *testing.T) {
			batch := make([][]float64, tc.events)
			for i := range batch {
				batch[i] = []float64{5, 50}
			}
			if tc.depth > 64 {
				frames := tc.events / 8
				if frames != tc.depth {
					t.Fatalf("%d events make %d frames, want the depth %d", tc.events, frames, tc.depth)
				}
				c, err := DialWith(holdAcks(t, 0, frames, nil), DialConfig{Timeout: rpcTimeout, PipelineDepth: tc.depth})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = c.Close() }()
				counts, err := c.PublishValsBatch(batch, rpcTimeout)
				if err != nil {
					t.Fatalf("against a server that answers once %d frames are in: %v", frames, err)
				}
				for i, k := range counts {
					if k != i/8+1 {
						t.Fatalf("counts[%d] = %d, want frame %d's %d", i, k, i/8, i/8+1)
					}
				}
			}
			if raceEnabled {
				t.Skip("allocation pins do not hold under -race")
			}
			c, err := DialWith(startServer(t), DialConfig{Timeout: rpcTimeout, PipelineDepth: tc.depth})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			const n = 200
			calls := mallocs(n, func() {
				if _, err := c.PublishValsBatch(batch, rpcTimeout); err != nil {
					t.Fatal(err)
				}
			})
			if got := math.Round(float64(calls) / n); got != 1 {
				t.Errorf("PublishValsBatch(%d events) at depth %d: %v mallocs per call on both ends, want 1 (its result)", tc.events, tc.depth, got)
			}
		})
	}
}

// TestConcurrentBatchesKeepTheirCounts runs eight publishers of batches on
// one client. An acknowledgement's counts pass through the reader's scratch
// and a pooled waiter's buffer before they reach a result, so every result is
// checked against the subscriptions its events match; run it with -race. A
// batch whose timeout fires mid-window returns the counts acknowledged in
// time, and the late acknowledgements leave them alone.
func TestConcurrentBatchesKeepTheirCounts(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		addr := startServer(t)
		sub, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = sub.Close() }()
		const subs = 10 // temperature ≥ k for k < subs
		for k := range subs {
			if err := sub.Subscribe(fmt.Sprintf("t%d", k), fmt.Sprintf("profile(temperature >= %d)", k), 0, rpcTimeout); err != nil {
				t.Fatal(err)
			}
		}
		c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		var wg sync.WaitGroup
		errs := make(chan error, 8) // one per publisher
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch := make([][]float64, 100+13*g)
				for round := range 20 {
					for i := range batch {
						batch[i] = []float64{float64((g+i+round)%16 - 3), 50}
					}
					counts, err := c.PublishValsBatch(batch, rpcTimeout)
					if err != nil {
						errs <- err
						return
					}
					for i, v := range batch {
						if want := min(subs, max(0, int(v[0])+1)); counts[i] != want {
							errs <- fmt.Errorf("publisher %d round %d: temperature %v matched %d, want %d", g, round, v[0], counts[i], want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})

	t.Run("timeout mid-window", func(t *testing.T) {
		// Eight frames of eight events go out at once; frames 2 to 7 are
		// acknowledged only once the batch has given up on frame 2.
		release := make(chan struct{})
		var once sync.Once
		free := func() { once.Do(func() { close(release) }) }
		defer free()
		c, err := DialWith(holdAcks(t, 2, 6, release), DialConfig{Timeout: rpcTimeout, PipelineDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		batch := make([][]float64, 64)
		for i := range batch {
			batch[i] = []float64{5, 50}
		}
		counts, err := c.PublishValsBatch(batch, 200*time.Millisecond)
		if !errors.Is(err, errTimedOut) {
			t.Fatalf("batch returned %v, want a timeout", err)
		}
		check := func() {
			if len(counts) != 16 {
				t.Fatalf("a timeout at frame 2 returned %d counts, want frames 0 and 1's 16", len(counts))
			}
			for i, k := range counts {
				if k != i/8+1 {
					t.Fatalf("counts[%d] = %d after the late acknowledgements, want %d", i, k, i/8+1)
				}
			}
		}
		// Read the result while the late acknowledgements arrive: the pong
		// answers the ping only after them.
		free()
		pinged := make(chan error, 1)
		go func() { pinged <- c.Ping(rpcTimeout) }()
		for done := false; !done; {
			select {
			case err := <-pinged:
				if err != nil {
					t.Fatal(err)
				}
				done = true
			default:
				check()
			}
		}
		check()
		// The pooled waiters still serve the next batch, frames 8 to 15.
		next, err := c.PublishValsBatch(batch, rpcTimeout)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range next {
			if k != 9+i/8 {
				t.Fatalf("next batch: counts[%d] = %d, want %d", i, k, 9+i/8)
			}
		}
	})
}
