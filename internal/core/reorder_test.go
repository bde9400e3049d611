package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"genas/internal/dist"
	"genas/internal/predicate"
)

// TestSetConfigKeepsStructure: a configuration that changes only how values
// are weighed inside nodes leaves the built automaton published for Reorder
// to work on; one that changes what Build would produce invalidates it.
func TestSetConfigKeepsStructure(t *testing.T) {
	s := testSchema(t)
	peaked := []dist.Dist{dist.New(dist.PeakHigh(0.9), s.At(0).Domain), dist.New(dist.PeakLow(0.9), s.At(1).Domain)}
	for _, tc := range []struct {
		name   string
		start  Config
		change func(*Config)
		stale  bool
	}{
		{"event dists", Config{}, func(c *Config) { c.EventDists = peaked }, false},
		{"both under A1", Config{AttrOrdering: AttrA1}, func(c *Config) { c.AttrOrdering, c.EventDists = AttrA1, peaked }, false},
		{"attribute ordering", Config{}, func(c *Config) { c.AttrOrdering = AttrA1 }, true},
		{"event dists under A2", Config{AttrOrdering: AttrA2}, func(c *Config) { c.EventDists = peaked }, true},
		{"event dists under A3", Config{AttrOrdering: AttrA3}, func(c *Config) { c.EventDists = peaked }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(s, tc.start)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 30; i++ {
				expr := fmt.Sprintf("profile(x = %d; y >= %d)", rng.Intn(100), rng.Intn(100))
				if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr)); err != nil {
					t.Fatal(err)
				}
			}
			built := e.Tree()
			if built == nil {
				t.Fatal("no automaton")
			}
			cfg := e.Config()
			tc.change(&cfg)
			e.SetConfig(cfg)
			if got := e.snap.Load().tree; (got == nil) != tc.stale || (!tc.stale && got != built) {
				t.Errorf("published tree %p after SetConfig (built %p), want stale = %v", got, built, tc.stale)
			}
			if e.Tree() == nil {
				t.Error("Tree() must resolve a stale snapshot")
			}
		})
	}
}

// TestQuickEnginePartialReorder: after the event distributions of a random
// set of attributes changed, Reorder over that set leaves a single engine and
// a sharded one matching every probe with the ids and the operation count of
// an engine that reordered every node, and re-sorts no more nodes than it:
// both re-lay narrow nodes only, the partial one those testing one of its
// attributes.
func TestQuickEnginePartialReorder(t *testing.T) {
	shapes := []dist.Shape{dist.PeakHigh(0.9), dist.PeakLow(0.8), dist.Gauss(), dist.UniformShape{}}
	check := func(seed int64, pick uint8) bool {
		whole, sharded, s := shardedPair(t, 3, 40, seed)
		part, _, _ := shardedPair(t, 1, 40, seed)
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{EventDists: uniformDists(s)}
		var attrs []int
		next := append([]dist.Dist(nil), cfg.EventDists...)
		for a := 0; a < s.N(); a++ {
			if pick>>a&1 == 1 {
				attrs = append(attrs, a)
				next[a] = dist.New(shapes[rng.Intn(len(shapes))], s.At(a).Domain)
			}
		}
		if attrs == nil {
			return true
		}
		var wholeNodes, partNodes, shardNodes int
		for _, step := range []struct {
			dists []dist.Dist
			attrs []int
		}{{cfg.EventDists, nil}, {next, attrs}} {
			cfg.EventDists = step.dists
			var err error
			whole.SetConfig(cfg)
			if wholeNodes, _, err = whole.Reorder(); err != nil {
				t.Error(err)
				return false
			}
			part.SetConfig(cfg)
			if partNodes, _, err = part.Reorder(step.attrs...); err != nil {
				t.Error(err)
				return false
			}
			sharded.SetConfig(cfg)
			if shardNodes, _, err = sharded.Reorder(step.attrs...); err != nil {
				t.Error(err)
				return false
			}
		}
		if partNodes > wholeNodes || shardNodes == 0 {
			t.Errorf("seed %d attrs %v: re-sorted %d nodes, %d across shards, whole reorder %d", seed, attrs, partNodes, shardNodes, wholeNodes)
			return false
		}
		for i := 0; i < 100; i++ {
			ev := []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
			want, wantOps, _ := whole.Match(ev)
			got, gotOps, _ := part.Match(ev)
			if fmt.Sprint(want) != fmt.Sprint(got) || wantOps != gotOps {
				t.Errorf("seed %d attrs %v: %v matched %v in %d ops, whole reorder %v in %d", seed, attrs, ev, got, gotOps, want, wantOps)
				return false
			}
			if got, _, _ := sharded.Match(ev); fmt.Sprint(sortedIDs(want)) != fmt.Sprint(sortedIDs(got)) {
				t.Errorf("seed %d attrs %v: %v matched %v sharded, want %v", seed, attrs, ev, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReorderOfWideNodesPublishesNothing: a reorder of an attribute that
// only wide nodes test re-lays and copies nothing — a directory reads no
// weights — so the engine publishes no successor; one of an attribute that
// narrow nodes test publishes one.
func TestReorderOfWideNodesPublishesNothing(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	for i := 0; i < 40; i++ {
		p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), fmt.Sprintf("profile(x = %d)", 2*i))
		if err := e.AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	if root := e.Tree().Root(); len(root.Edges()) < 40 {
		t.Fatalf("the root has %d edges, want a wide node of 40", len(root.Edges()))
	}
	before := e.snap.Load()
	if resorted, copied, err := e.Reorder(0); err != nil || resorted+copied != 0 || e.snap.Load() != before {
		t.Fatalf("a reorder of the wide root re-laid %d, copied %d (%v) and published anew: %v", resorted, copied, err, e.snap.Load() != before)
	}
	if resorted, _, err := e.Reorder(1); err != nil || resorted == 0 || e.snap.Load() == before {
		t.Fatalf("a reorder of the level below re-laid %d (%v) and published anew: %v", resorted, err, e.snap.Load() != before)
	}
}
