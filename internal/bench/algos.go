package bench

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/sketch"
)

// Algorithm names as used in the paper's legends.
const (
	AlgoL1SR   = "l1-S/R"
	AlgoL2SR   = "l2-S/R"
	AlgoCM     = "CM"     // Count-Median
	AlgoCS     = "CS"     // Count-Sketch
	AlgoCMCU   = "CM-CU"  // Count-Min, conservative update
	AlgoCMLCU  = "CML-CU" // Count-Min-Log, conservative update
	AlgoL1Mean = "l1-mean"
	AlgoL2Mean = "l2-mean"
	AlgoCntMin = "Count-Min" // extra baseline (paper omits it: CM-CU dominates)
	AlgoDeng   = "Deng-Rafiei"
)

// SixMain is the algorithm set of Figures 1–7.
var SixMain = []string{AlgoL1SR, AlgoL2SR, AlgoCM, AlgoCS, AlgoCMCU, AlgoCMLCU}

// MeanComparison is the algorithm set of Figures 8–9 (§5.4).
var MeanComparison = []string{AlgoL1SR, AlgoL2SR, AlgoL1Mean, AlgoL2Mean}

// All lists every constructible algorithm.
var All = []string{
	AlgoL1SR, AlgoL2SR, AlgoCM, AlgoCS, AlgoCMCU, AlgoCMLCU,
	AlgoL1Mean, AlgoL2Mean, AlgoCntMin, AlgoDeng,
}

// Make constructs an algorithm following the paper's sizing protocol
// (§5.1): the bias-aware sketches use depth d with s extra words for
// bias estimation; the baselines use depth d+1, so every algorithm
// consumes (d+1)·s words. k is s/4 (the minimal c_s = 4). Streaming
// variants of the bias-aware sketches (Bias-Heap / BST-maintained
// samples) are always used, so the same constructor serves the vector
// and the stream experiments.
//
// Make is legend-name sugar over the shared algorithm catalog in
// internal/registry, which also backs the public repro.New facade and
// the wire-format codec loader.
func Make(algo string, n, s, d int, seed int64) sketch.Sketch {
	e, ok := registry.Lookup(algo)
	if !ok {
		panic(fmt.Sprintf("bench: unknown algorithm %q", algo))
	}
	return e.MustNew(registry.Shape{N: n, S: s, D: d, Seed: seed})
}
