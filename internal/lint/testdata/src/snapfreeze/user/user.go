// Package user consumes frozen types declared upstream: the cross-package
// fact must protect them here too.
package user

import "fix/snapfreeze/types"

// Clobber writes an upstream frozen field directly.
func Clobber(n *types.Node) {
	n.Attr = 2 // want "write to frozen type types.Node"
}

// DeepWrite mutates a frozen value reached through an index.
func DeepWrite(n *types.Node) {
	n.Edges[0].Child = nil // want "write to frozen type types.Edge"
}

// Overwrite replaces the pointee wholesale.
func Overwrite(n *types.Node) {
	*n = types.Node{} // want "write to frozen type types.Node"
}

// Alias writes through a typed alias into the frozen value.
func Alias(n *types.Node) {
	e := &n.Edges[0]
	e.Profiles = append(e.Profiles, 1) // want "write to frozen type types.Edge"
}

// AppendThrough may grow in place, scribbling on the shared backing array.
func AppendThrough(n *types.Node) []int {
	return append(n.Profiles, 9) // want "append writes into frozen type types.Node"
}

// CopyInto overwrites frozen elements via the copy builtin.
func CopyInto(n *types.Node, src []int) {
	copy(n.Profiles, src) // want "copy writes into frozen type types.Node"
}

// MapWrite stores into a frozen value's map.
func MapWrite(n *types.Node) {
	n.Index["k"] = 1 // want "write to frozen type types.Node"
}

// Bump increments a frozen field.
func Bump(n *types.Node) {
	n.Attr++ // want "write to frozen type types.Node"
}

// SlabWrite writes a published record in its slab's page in place.
func SlabWrite(s *types.Slab) {
	s.Pages[0][1].To = 3 // want "write to frozen type types.Rec"
}

// SlabRun writes through a run of records sliced out of a page.
func SlabRun(s *types.Slab) {
	run := s.Pages[0][2:4]
	run[0] = types.Rec{} // want "write to frozen type types.Rec"
}

// SlabCopy overwrites a page's records via the copy builtin.
func SlabCopy(s *types.Slab, src []types.Rec) {
	copy(s.Pages[0], src) // want "copy writes into frozen type types.Rec"
}

// SlabRead reads records and re-slices pages: legal.
func SlabRead(s *types.Slab) int32 {
	run := s.Pages[0][1:3]
	s.Pages = s.Pages[:1]
	return run[0].To + s.Pages[0][0].To
}

// Rebind only rebinds the local variable: not a mutation.
func Rebind(n *types.Node) *types.Node {
	n = types.NewNode(1)
	return n
}

// ReadAcross is the legal consumption shape: reads, lengths, fresh copies
// of the data into caller-owned slices.
func ReadAcross(n *types.Node) []int {
	out := make([]int, 0, len(n.Profiles))
	out = append(out, n.Profiles...)
	return out
}

// Traverse keeps a local worklist of pointers to frozen nodes: writing
// the pointer slots of a []*Node never mutates the pointees — the DFS
// shape every tree walk uses, and the false positive the pointer-element
// stop in frozenTypeOf exists to prevent.
func Traverse(root *types.Node) int {
	stack := []*types.Node{root}
	total := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		total += n.Attr
		for i := range n.Edges {
			if c := n.Edges[i].Child; c != nil {
				stack = append(stack, c)
			}
		}
	}
	return total
}

// Successor is a downstream builder: constructing the next epoch's
// snapshot is exactly what builder sites are for.
//
//genas:builder
func Successor(n *types.Node) *types.Node {
	next := types.NewNode(n.Attr)
	next.Profiles = append(next.Profiles, 1)
	return next
}
