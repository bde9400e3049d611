package selectivity_test

import (
	"math/rand"

	"genas/internal/experiments"
	"genas/internal/selectivity"
	"genas/internal/tree"
)

// newRand returns a deterministic PRNG for reproducible tests.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// searchModel is one node search as Analyze charges it and as events meet it.
type searchModel struct {
	name  string
	cost  func(tree.View, *tree.Pieces) (edge, ops int)
	match func([]float64) ([]int32, int)
}

// searchModels returns the five scans of the reproduction over tr, their
// defined order ranked by order, and the tree's own probe.
func searchModels(tr *tree.Tree, order experiments.ScanOrder) []searchModel {
	var out []searchModel
	for _, search := range []experiments.Search{experiments.SearchLinear, experiments.SearchBinary, experiments.SearchLinearNoStop, experiments.SearchInterpolation, experiments.SearchHash} {
		scan := experiments.NewScan(tr, search, order)
		out = append(out, searchModel{search.String(), scan.Cost, scan.Match})
	}
	return append(out, searchModel{"weighted", selectivity.Probe, tr.Match})
}
