// Package heavyhitter finds the coordinates that deviate most from the
// data's bias — the "frequent elements" application of §1 restated for
// biased vectors, and the distributed outlier-detection use case of
// Yan et al. [31] that motivated BOMP. On biased data the classical
// notion ("largest coordinates") is useless because every coordinate
// carries the bias mass; the meaningful heavy hitters are the
// coordinates far from β.
//
// The bias-aware sketches answer x̂_i = β̂ + a median over d de-biased
// rows (Algorithms 2 and 4), so x̂_i can deviate from β̂ by more than τ
// only if at least ⌈d/2⌉ of its rows exceed τ in magnitude. TopK and
// Scan drive the sketches' range scan, which drops every coordinate
// that bound rules out and fully queries only the rest; sketches
// without one get the full scan, which is also the tests' oracle.
package heavyhitter

import (
	"container/heap"
	"math"
	"sort"
)

// BiasedSketch is the query surface detection needs; core.SR satisfies
// it in both schemes.
type BiasedSketch interface {
	Query(i int) float64
	Bias() float64
	Dim() int
}

// Deviator is one reported outlier.
type Deviator struct {
	Index     int
	Estimate  float64 // x̂_i
	Deviation float64 // |x̂_i − β̂|
}

// batchQuerier matches sketches with a native batched query path — the
// sketch.BatchQuerier capability, restated structurally so this
// package keeps zero sketch dependencies. The full scan drives it in
// chunks: QueryBatch is bit-identical to the Query loop, so results
// never change.
type batchQuerier interface {
	QueryBatch(idx []int, out []float64)
}

// rangeScanner matches sketches with a bounded range scan — the
// ScanRange of core.SR, restated structurally like batchQuerier.
// ScanRange writes into idx and out, in increasing key order, the keys
// of [lo, hi) whose deviation may exceed tau, with their QueryBatch
// estimates, and returns how many; every key it leaves out deviates by
// at most tau, and a tau that is not positive and finite leaves none
// out.
type rangeScanner interface {
	ScanRange(lo, hi int, tau float64, idx []int, out []float64) int
}

// scanChunk is the batch size of the chunked scans: large enough to
// amortize per-row hash-coefficient loads, small enough that the
// per-chunk scratch stays cache-resident. A range scan reads its bound
// once per chunk.
const scanChunk = 1024

// forEachEstimate calls visit(i, x̂_i) for every coordinate, through
// the sketch's batched query path when it has one — the full scan.
func forEachEstimate(s BiasedSketch, visit func(i int, est float64)) {
	n := s.Dim()
	bq, ok := s.(batchQuerier)
	if !ok {
		for i := 0; i < n; i++ {
			visit(i, s.Query(i))
		}
		return
	}
	idx := make([]int, scanChunk)
	out := make([]float64, scanChunk)
	for base := 0; base < n; base += scanChunk {
		m := scanChunk
		if rem := n - base; rem < m {
			m = rem
		}
		for j := 0; j < m; j++ {
			idx[j] = base + j
		}
		bq.QueryBatch(idx[:m], out[:m])
		for j := 0; j < m; j++ {
			visit(base+j, out[j])
		}
	}
}

// forEachCandidate calls visit(i, x̂_i), in increasing i, for every
// coordinate whose deviation may exceed bound(), which it reads at the
// start of each chunk; every coordinate it skips deviates by at most
// the bound of its chunk. Sketches without a range scan get the full
// scan.
func forEachCandidate(s BiasedSketch, bound func() float64, visit func(i int, est float64)) {
	rs, ok := s.(rangeScanner)
	if !ok {
		forEachEstimate(s, visit)
		return
	}
	n := s.Dim()
	idx := make([]int, scanChunk)
	out := make([]float64, scanChunk)
	for lo := 0; lo < n; lo += scanChunk {
		m := rs.ScanRange(lo, min(lo+scanChunk, n), bound(), idx, out)
		for j := 0; j < m; j++ {
			visit(idx[j], out[j])
		}
	}
}

// Scan returns every coordinate whose estimated deviation from the
// bias exceeds threshold, sorted by decreasing deviation (ties by
// index). It fully queries only the coordinates the sketch's range
// scan cannot rule out by a median bound (every coordinate, batched,
// for a sketch without one), and the answer is the full scan's.
func Scan(s BiasedSketch, threshold float64) []Deviator {
	beta := s.Bias()
	var out []Deviator
	forEachCandidate(s, func() float64 { return threshold }, func(i int, est float64) {
		if dev := math.Abs(est - beta); dev > threshold {
			out = append(out, Deviator{Index: i, Estimate: est, Deviation: dev})
		}
	})
	sortDeviators(out)
	return out
}

// TopK returns the k coordinates with the largest estimated deviation
// from the bias, sorted by decreasing deviation (ties by index), from
// an O(k)-size selection heap. Once the heap holds k coordinates, a
// later one enters only by deviating more than the heap's minimum — a
// tie loses to the smaller index already held — so that minimum is
// the bound of the sketch's range scan, and only the coordinates it
// cannot rule out are fully queried. The answer is the full scan's.
func TopK(s BiasedSketch, k int) []Deviator {
	if k <= 0 {
		return nil
	}
	beta := s.Bias()
	h := &devMinHeap{}
	// Once the heap is full its root's deviation never falls: a
	// replacement deviates more, and sinks only below a smaller child.
	// A NaN never moves once pushed, so it either stays at the root,
	// where it bounds nothing, or hides only what sits below it.
	bound := func() float64 {
		if h.Len() < k {
			return math.Inf(-1)
		}
		return (*h)[0].Deviation
	}
	forEachCandidate(s, bound, func(i int, est float64) {
		d := Deviator{Index: i, Estimate: est, Deviation: math.Abs(est - beta)}
		if h.Len() < k {
			heap.Push(h, d)
		} else if less((*h)[0], d) {
			(*h)[0] = d
			heap.Fix(h, 0)
		}
	})
	out := make([]Deviator, h.Len())
	copy(out, *h)
	sortDeviators(out)
	return out
}

// less orders deviators ascending: smaller deviation first, larger
// index breaking ties (so sort-descending puts smaller index first).
func less(a, b Deviator) bool {
	if a.Deviation != b.Deviation {
		return a.Deviation < b.Deviation
	}
	return a.Index > b.Index
}

func sortDeviators(ds []Deviator) {
	sort.Slice(ds, func(i, j int) bool { return less(ds[j], ds[i]) })
}

type devMinHeap []Deviator

func (h devMinHeap) Len() int            { return len(h) }
func (h devMinHeap) Less(i, j int) bool  { return less(h[i], h[j]) }
func (h devMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *devMinHeap) Push(x interface{}) { *h = append(*h, x.(Deviator)) }
func (h *devMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
