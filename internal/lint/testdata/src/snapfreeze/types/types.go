// Package types declares the frozen snapshot shapes the snapfreeze
// fixture protects, mirroring internal/tree's Node/Edge.
package types

// Node is one immutable snapshot node.
//
//genas:frozen
type Node struct {
	Attr     int
	Profiles []int
	Edges    []Edge
	Index    map[string]int
}

// Edge is one immutable transition.
//
//genas:frozen
type Edge struct {
	Kind     int
	Profiles []int
	Child    *Node
}

// Rec is a pointer-free record kept in a Slab, as internal/tree keeps its
// node and edge records.
//
//genas:frozen
type Rec struct {
	Lo, Hi float64
	To     int32
}

// Slab holds records in chunks addressed by index: Pages[i] is a chunk's
// records from index i·size on. It is no frozen type itself; its records are.
type Slab struct {
	Pages [][]Rec
}

// Carve is a designated construction site for records: writing a fresh
// chunk's records is legal here.
//
//genas:builder
func Carve(s *Slab, n int) []Rec {
	chunk := make([]Rec, n)
	s.Pages = append(s.Pages, chunk)
	chunk[0].To = 1
	copy(chunk[1:], chunk[:1])
	return chunk
}

// NewNode is a designated construction site: writes are legal here.
//
//genas:builder
func NewNode(attr int) *Node {
	n := &Node{Attr: attr, Index: make(map[string]int)}
	n.Profiles = append(n.Profiles, attr)
	n.Edges = append(n.Edges, Edge{Kind: 1})
	n.Index["root"] = attr
	return n
}

// Mutate is a same-package violation: no builder annotation.
func Mutate(n *Node) {
	n.Attr = 1 // want "write to frozen type types.Node"
}

// Read-only traversal is always legal.
func Sum(n *Node) int {
	total := len(n.Profiles)
	for _, e := range n.Edges {
		total += e.Kind
	}
	if v, ok := n.Index["root"]; ok {
		total += v
	}
	return total
}
