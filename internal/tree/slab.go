package tree

import (
	"slices"
	"unsafe"
)

// A tree keeps no pointers: every level stores its node records, their edges
// and the int32 runs of their probe trees and parked sets in three slabs, the
// leaf level its match sets in two more, and a record names another by its
// index in the slab that holds it. The garbage collector never scans the
// automaton, and a record costs its bytes and no header.
//
// A slab is chunks of records. A chunk starts on a page boundary of the
// index space, and pages[i] is the chunk holding index i·pageSize, sliced
// from that index to the chunk's end: a record is one lookup, and a run of
// records, which never spans chunks, one slice. A Build's level is a few
// chunks (growing), a Copied or Reordered level one chunk of exactly what it
// holds. A line of edits carves further pages, each region on the next free
// one, and hands its index space down: a successor reads its predecessor's
// records by the same indices, and writes only past them.
type slab[T any] struct {
	pages [][]T
}

const (
	pageShift = 7
	pageSize  = 1 << pageShift
)

// at returns record i.
func (s *slab[T]) at(i int32) *T { return &s.pages[i>>pageShift][i&(pageSize-1)] }

// run returns the n records from i on.
func (s *slab[T]) run(i int32, n int) []T {
	if n == 0 {
		return nil
	}
	o := int(i & (pageSize - 1))
	return s.pages[i>>pageShift][o : o+n : o+n]
}

// cut returns the slab's first n pages, its page table's capacity cut there.
func (s *slab[T]) cut(n int) slab[T] { return slab[T]{pages: s.pages[:n:n]} }

// slots bounds the slab's indices: a table indexed by record needs this many
// entries.
func (s *slab[T]) slots() int { return len(s.pages) << pageShift }

// growing is a slab under construction by a Build or a copy: records taken
// in runs, in chunks. The first chunk grows in place up to firstChunk
// records, so that a small build is one chunk of what it holds; each later
// one starts on the next page of the index space and holds firstChunk
// records or a sixteenth of what came before, and is never copied but to
// clip it once done with.
type growing[T any] struct {
	pages [][]T
	cur   []T   // the newest chunk, up to its last record taken
	base  int32 // the index of cur[0]
	held  int   // the records of the chunks before cur
}

const firstChunk = 1 << 12

// take returns the index of n fresh records, and the records.
//
//genas:builder
func (g *growing[T]) take(n int) (int32, []T) {
	if cap(g.cur)-len(g.cur) < n {
		if g.held == 0 && len(g.cur)+n <= firstChunk || len(g.cur) == 0 {
			g.cur = slices.Grow(g.cur, n)
		} else {
			g.held += len(g.cur)
			g.pages = appendPages(g.pages, clipped(g.cur))
			g.base = int32(len(g.pages) << pageShift)
			g.cur = slices.Grow([]T(nil), max(n, g.held/16, firstChunk))
		}
	}
	i := g.base + int32(len(g.cur))
	g.cur = g.cur[:len(g.cur)+n]
	return i, g.cur[len(g.cur)-n:]
}

// slab returns the records taken as a slab.
//
//genas:builder
func (g *growing[T]) slab() slab[T] {
	return slab[T]{pages: clipped(appendPages(g.pages, clipped(g.cur)))}
}

// clipped returns a chunk or a page table done with, copied to its length
// where its capacity would waste more than a 128th of it.
func clipped[T any](chunk []T) []T {
	if cap(chunk)-len(chunk) > len(chunk)/128 {
		return slices.Clone(chunk)
	}
	return chunk
}

// appendPages appends the page entries of chunk, which starts on a page.
func appendPages[T any](pages [][]T, chunk []T) [][]T {
	k := (len(chunk) + pageSize - 1) >> pageShift
	pages = slices.Grow(pages, k)
	for j := range k {
		pages = append(pages, chunk[j<<pageShift:])
	}
	return pages
}

// level is the storage of one tree level: its node records, their edges, and
// the runs of their probe trees and parked sets. A Build or a copy gives each
// level chunks of its own: Reordered replaces a tree level by level, and a
// chunk lives as long as anything in it, so a chunk shared with the levels
// below would keep what a reorder replaced. (A line's chunks are shared, and
// bounded with the line.)
type level struct {
	nodes slab[Node]
	edges slab[Edge]
	ints  slab[int32]
}

// leafStore is the storage of the match sets: a table entry per distinct set,
// which the leaf-level edges point to, and the sets' dense indices.
type leafStore struct {
	sets slab[span]
	ints slab[int32]
}

// span locates one run of a slab.
type span struct{ off, n int32 }

// Record sizes, for Stats and the line's accounting.
const (
	nodeBytes = int(unsafe.Sizeof(Node{}))
	edgeBytes = int(unsafe.Sizeof(Edge{}))
	spanBytes = int(unsafe.Sizeof(span{}))
)

// A line carves its records from chunks it shares among its levels, one
// chunk run per record kind (a pool), and hands each level's slab whole pages
// of them: a region of pages contiguous both in memory and in the slab's
// index space, of which the level's tail carves runs. So a line mallocs about
// as often as it would with one slab per kind, and a level's slab still maps
// every page to one contiguous region.
//
// tail is where a line carves one slab: the free run of its newest region,
// and the records its regions hold.
type tail struct {
	free, end int32
	held      int
}

// pool is the unassigned rest of a line's newest chunk of one kind, in whole
// pages, and the records its chunks hold.
type pool[T any] struct {
	free []T
	held int
}

// lineTails are a line's tails, a level's three and the leaf store's two, and
// its pools.
type lineTails struct {
	levels     []levelTails
	sets, ints tail
	nodes      pool[Node]
	edges      pool[Edge]
	int32s     pool[int32]
	spans      pool[span]
}

type levelTails struct{ nodes, edges, ints tail }

// newTails starts a line's tails past every page t's slabs hold: the line
// carves fresh regions only, and grows a copy of every page table it extends.
func newTails(t *Tree) lineTails {
	past := func(pages int) tail {
		i := int32(pages << pageShift)
		return tail{free: i, end: i}
	}
	lt := lineTails{levels: make([]levelTails, len(t.lv)), sets: past(len(t.leaves.sets.pages)), ints: past(len(t.leaves.ints.pages))}
	for i := range t.lv {
		lt.levels[i].reset(&t.lv[i])
	}
	return lt
}

// reset points a level's tails past its slabs' pages, keeping what the line
// holds.
func (lt *levelTails) reset(l *level) {
	lt.nodes.free = int32(len(l.nodes.pages) << pageShift)
	lt.edges.free = int32(len(l.edges.pages) << pageShift)
	lt.ints.free = int32(len(l.ints.pages) << pageShift)
	lt.nodes.end, lt.edges.end, lt.ints.end = lt.nodes.free, lt.edges.free, lt.ints.free
}

// A level's regions grow with what its slab holds, an eighth of it, in whole
// pages. The line's chunks grow with what its pool holds: an eighth of it,
// at least the fixed count of its kind, up to maxChunk bytes. One insert
// copies dozens of nodes and thousands of edges, so a young line's chunks
// each hold a part of an insert and an old line's each hold many inserts, and
// an insert mallocs a chunk once in several. A chunk lives while its line's
// newest tree does, so one that holds many inserts keeps copies later inserts
// superseded, until the line is worn and its head's copy into a fresh line
// lets the old one go.
const (
	nodeChunk = 8 * pageSize
	edgeChunk = 8 * pageSize
	intChunk  = 16 * pageSize
	setChunk  = 4 * pageSize
	maxChunk  = 1 << 20
)

// carve hands out n fresh records of the slab pick finds in c's tree, at the
// line's tail tl, refilling it with a region of whole pages from the line's
// pool p, which a chunk of at least d records refills in turn once it has
// not the pages n needs left. A page table the region outgrows is replaced by
// a copy four times its size in the successor's own levels, so no tree that
// shares the old table sees a write.
//
//genas:builder
func carve[T any](c *carver, l int, pick func(*Tree, int) *slab[T], tl *tail, p *pool[T], n, d int) (int32, []T) {
	if int(tl.end-tl.free) < n {
		need := (n + pageSize - 1) &^ (pageSize - 1)
		if len(p.free) < need {
			var rec T
			size := int(unsafe.Sizeof(rec))
			chunk := slices.Grow([]T(nil), max(need, d, min(p.held/8, maxChunk/size))) // Grow rounds the chunk up to its size class
			p.free = chunk[: cap(chunk)&^(pageSize-1) : cap(chunk)&^(pageSize-1)]
			p.held += len(p.free)
			c.t.line.held += len(p.free) * size
		}
		// The region is an eighth of what the slab holds, or what the chunk
		// has left, if less.
		want := min(max(need, (tl.held/8)&^(pageSize-1)), len(p.free))
		region := p.free[:want:want]
		p.free = p.free[want:]
		p0, k := int(tl.end+pageSize-1)>>pageShift, want>>pageShift
		s := pick(c.t, l)
		if p0+k > len(s.pages) {
			c.own()
			s = pick(c.t, l)
			grown := make([][]T, max(4*len(s.pages), p0+k))
			copy(grown, s.pages)
			s.pages = grown
		}
		for j := range k {
			s.pages[p0+j] = region[j<<pageShift:]
		}
		tl.free, tl.end = int32(p0<<pageShift), int32((p0+k)<<pageShift)
		tl.held += want
	}
	i := tl.free
	tl.free += int32(n)
	return i, pick(c.t, l).run(i, n)
}

// carver writes a successor's new records into its line: the tree under
// construction, and whether its levels are its own yet — a successor shares
// its predecessor's until a page table must grow.
type carver struct {
	t     *Tree
	owned bool
}

//genas:builder
func (c *carver) own() {
	if !c.owned {
		c.t.lv, c.owned = slices.Clone(c.t.lv), true
	}
}

func pickNodes(t *Tree, l int) *slab[Node]   { return &t.lv[l].nodes }
func pickEdges(t *Tree, l int) *slab[Edge]   { return &t.lv[l].edges }
func pickInts(t *Tree, l int) *slab[int32]   { return &t.lv[l].ints }
func pickSets(t *Tree, _ int) *slab[span]    { return &t.leaves.sets }
func pickLeaves(t *Tree, _ int) *slab[int32] { return &t.leaves.ints }

// node carves one node record at level l.
func (c *carver) node(l int) (int32, *Node) {
	lt := &c.t.line.tails
	i, r := carve(c, l, pickNodes, &lt.levels[l].nodes, &lt.nodes, 1, nodeChunk)
	return i, &r[0]
}

// edges commits a scratch-built edge list at level l.
//
//genas:builder
func (c *carver) edges(l int, src []Edge) int32 {
	lt := &c.t.line.tails
	i, r := carve(c, l, pickEdges, &lt.levels[l].edges, &lt.edges, len(src), edgeChunk)
	copy(r, src)
	return i
}

// ints carves n int32s at level l: a probe tree or a parked set.
func (c *carver) ints(l, n int) (int32, []int32) {
	lt := &c.t.line.tails
	return carve(c, l, pickInts, &lt.levels[l].ints, &lt.int32s, n, intChunk)
}

// leaf commits a match set to the leaf store and returns its table entry.
//
//genas:builder
func (c *carver) leaf(set []int32) int32 {
	lt := &c.t.line.tails
	off, r := carve(c, 0, pickLeaves, &lt.ints, &lt.int32s, len(set), intChunk)
	copy(r, set)
	i, e := carve(c, 0, pickSets, &lt.sets, &lt.spans, 1, setChunk)
	e[0] = span{off, int32(len(set))}
	return i
}
