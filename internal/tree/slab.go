package tree

import (
	"slices"
	"unsafe"
)

// A tree keeps no pointers: it stores its records in four slabs, one per
// kind — the node records, their edges, the int32 runs of the layouts,
// parked sets and match sets, and the match-set table — and a record names
// another by its index in the slab that holds it. A slab is one index space
// across the levels. The garbage collector never scans the automaton, and a
// record costs its bytes and no header.
//
// A slab is chunks of records. A chunk starts on a page boundary of the
// index space, and pages[i] is the chunk holding index i·pageSize, sliced
// from that index to the chunk's end: a record is one lookup, and a run of
// records, which never spans chunks, one slice. Every record is carved from a
// line (carve): a Build starts one and seals it, its newest chunks clipped to
// what they hold; a Copied, a Reordered that reaches the last level, and an
// edit or partial reorder of a tree that heads no line place one exact chunk
// per slab in a fresh line (place); and the head's edits and partial reorders
// carve further chunks into its line. A line has one writer, its head: a
// successor reads its predecessor's records and pages by the same indices,
// and writes only past them.
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

// slots bounds the slab's indices: a table indexed by record needs this many
// entries.
func (s *slab[T]) slots() int { return len(s.pages) << pageShift }

// store is a tree's records, a slab per kind.
type store struct {
	nodes slab[Node]
	edges slab[Edge]
	ints  slab[int32]
	sets  slab[span]
}

// span locates one run of a slab.
type span struct{ off, n int32 }

// Record sizes, for Stats and the line's accounting.
const (
	nodeBytes = int(unsafe.Sizeof(Node{}))
	edgeBytes = int(unsafe.Sizeof(Edge{}))
	spanBytes = int(unsafe.Sizeof(span{}))
)

// tail is where a line carves one slab: its newest chunk, which starts at
// start and is free from free to end, and the records the line's chunks of
// the kind hold.
type tail struct {
	start, free, end int32
	held             int
}

// tails are a line's tails, one per slab.
type tails struct{ nodes, edges, ints, sets tail }

// A line's chunks of a kind grow with what its chunks of the kind hold: an
// eighth of it, at least the fixed count of its kind, up to maxChunk bytes.
// One insert copies dozens of nodes and thousands of edges, so a young line's
// chunks each hold a part of an insert and an old line's each hold many
// inserts, and an insert mallocs a chunk once in several. A chunk lives while
// its line's newest tree does, so one that holds many inserts keeps copies
// later inserts superseded, until the line is worn and its head's copy into a
// fresh line lets the old one go. A Build carves alike, and its seal clips
// each newest chunk to what it holds.
const (
	nodeChunk = 8 * pageSize
	edgeChunk = 8 * pageSize
	intChunk  = 16 * pageSize
	setChunk  = 4 * pageSize
	maxChunk  = 1 << 20
)

// carve hands out n fresh records of slab s at the line's tail tl, placing a
// fresh chunk of at least d records once the newest has not n left.
//
//genas:builder
func carve[T any](l *lineage, s *slab[T], tl *tail, n, d int) (int32, []T) {
	if int(tl.end-tl.free) < n {
		var rec T
		chunk := slices.Grow([]T(nil), max(n, d, min(tl.held/8, maxChunk/int(unsafe.Sizeof(rec)))))
		place(l, s, tl, chunk[:cap(chunk)]) // Grow rounds the chunk up to its size class
	}
	i := tl.free
	tl.free += int32(n)
	return i, s.run(i, n)
}

// place makes chunk the newest of slab s, on the first page past the tail
// tl, which ends the pages s holds. The page table grows in length by the
// chunk's pages only, and in capacity, where the chunk outgrows it, fourfold
// into a copy: the head alone writes past the pages a predecessor holds.
//
//genas:builder
func place[T any](l *lineage, s *slab[T], tl *tail, chunk []T) {
	p0, k := len(s.pages), (len(chunk)+pageSize-1)>>pageShift
	if p0+k > cap(s.pages) {
		s.pages = append(make([][]T, 0, max(4*cap(s.pages), p0+k)), s.pages...)
	}
	s.pages = s.pages[:p0+k]
	for j := range k {
		s.pages[p0+j] = chunk[j<<pageShift:]
	}
	tl.start = int32(p0 << pageShift)
	tl.free, tl.end = tl.start, tl.start+int32(len(chunk))
	tl.held += len(chunk)
	l.held += len(chunk) * int(unsafe.Sizeof(chunk[0]))
}

// clip ends a slab's carving by a Build or a copy: it clips the newest chunk
// and the page table to what they hold, restarts the tail past them, where
// the line places its next chunk, and returns the bytes carved.
//
//genas:builder
func clip[T any](s *slab[T], tl *tail) int {
	var rec T
	carved := (tl.held - int(tl.end-tl.free)) * int(unsafe.Sizeof(rec))
	if p0 := int(tl.start >> pageShift); tl.free > tl.start {
		chunk := clipped(s.pages[p0][:tl.free-tl.start])
		for j := 0; j<<pageShift < len(chunk); j++ {
			s.pages[p0+j] = chunk[j<<pageShift:]
		}
	}
	s.pages = clipped(s.pages[:(tl.free+pageSize-1)>>pageShift])
	end := int32(len(s.pages) << pageShift)
	*tl = tail{start: end, free: end, end: end}
	return carved
}

// clipped returns a chunk or a page table done with, copied to its length
// where its capacity would waste more than a 128th of it.
func clipped[T any](chunk []T) []T {
	if cap(chunk)-len(chunk) > len(chunk)/128 {
		return slices.Clone(chunk)
	}
	return chunk
}

// seal ends a Build or a copy into t's fresh line: each slab clipped, and the
// line's base the bytes carved.
func (t *Tree) seal() {
	l := t.line
	l.base = clip(&t.st.nodes, &l.tails.nodes) + clip(&t.st.edges, &l.tails.edges) +
		clip(&t.st.ints, &l.tails.ints) + clip(&t.st.sets, &l.tails.sets)
	l.held = 0
}

// newNode carves one node record.
func (t *Tree) newNode() (int32, *Node) {
	i, r := carve(t.line, &t.st.nodes, &t.line.tails.nodes, 1, nodeChunk)
	return i, &r[0]
}

// newEdges carves a copy of an edge list.
//
//genas:builder
func (t *Tree) newEdges(src []Edge) int32 {
	i, r := carve(t.line, &t.st.edges, &t.line.tails.edges, len(src), edgeChunk)
	copy(r, src)
	return i
}

// newInts carves n int32s: a layout, a parked set or a match set.
func (t *Tree) newInts(n int) (int32, []int32) {
	return carve(t.line, &t.st.ints, &t.line.tails.ints, n, intChunk)
}

// newLeaf carves a match set of n dense indices with its table entry, and
// returns the entry and the set's run.
func (t *Tree) newLeaf(n int) (int32, []int32) {
	off, run := t.newInts(n)
	i, e := carve(t.line, &t.st.sets, &t.line.tails.sets, 1, setChunk)
	e[0] = span{off, int32(n)}
	return i, run
}
