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
// only if at least ⌈d/2⌉ of its rows exceed τ in magnitude, and so
// only if one of rows 0..⌊d/2⌋ puts it in a bucket whose de-biased
// magnitude |y − β̂ψ| exceeds τ. TopK and Scan ask the sketch for the
// keys of those heavy buckets, which it lists by inverting its row
// hashes and screens by the same median bound, and fully query only
// the survivors. TopK takes its starting τ from the keys of the k
// heaviest buckets of row 0. When the sketch cannot bound τ, or the
// heavy buckets hold too many keys (near the noise floor), TopK and
// Scan take the sketch's range scan, which reads every key's screening
// rows. Sketches without either get the full scan, which is also the
// tests' oracle. Every reported estimate is a QueryBatch value, so
// every path answers bit for bit as the full scan does.
package heavyhitter

import (
	"container/heap"
	"math"
	"slices"
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

// candidateSource matches sketches that list the keys a deviation
// bound cannot rule out from their heavy buckets — SeedKeys and
// Candidates of core.SR, restated structurally like batchQuerier.
type candidateSource interface {
	// SeedKeys appends to dst distinct keys likely to deviate most (the
	// keys of the k heaviest buckets of a row) and reports true, or
	// appends nothing and reports false when there would be more than
	// about limit.
	SeedKeys(k, limit int, dst []int) ([]int, bool)
	// Candidates appends to dst, in increasing order, distinct keys
	// that include every key whose deviation exceeds tau, and reports
	// true; or it appends nothing and reports false, when it cannot
	// bound tau or would list more than about limit keys.
	Candidates(tau float64, limit int, dst []int) ([]int, bool)
}

// candidateShare sets the most keys the bucket path lists, n /
// candidateShare; beyond that TopK and Scan take the range scan.
const candidateShare = 8

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

// queryKeys writes x̂_idx[j] into out[j] for every j, through the
// sketch's batched query path when it has one.
func queryKeys(s BiasedSketch, idx []int, out []float64) {
	if bq, ok := s.(batchQuerier); ok {
		bq.QueryBatch(idx, out)
		return
	}
	for j, i := range idx {
		out[j] = s.Query(i)
	}
}

// Scan returns every coordinate whose estimated deviation from the
// bias exceeds threshold, sorted by decreasing deviation (ties by
// index). It fully queries only the keys of the sketch's heavy buckets
// that survive its median screen, or, when the sketch lists none (a
// guard fails, or they are too many), the coordinates its range scan
// cannot rule out (every coordinate, batched, for a sketch without
// either). The answer is the full scan's.
func Scan(s BiasedSketch, threshold float64) []Deviator {
	beta := s.Bias()
	var out []Deviator
	visit := func(i int, est float64) {
		if dev := math.Abs(est - beta); dev > threshold {
			out = append(out, Deviator{Index: i, Estimate: est, Deviation: dev})
		}
	}
	cs, ok := s.(candidateSource)
	var keys []int
	if ok {
		keys, ok = cs.Candidates(threshold, s.Dim()/candidateShare, nil)
	}
	if ok {
		ests := make([]float64, len(keys))
		queryKeys(s, keys, ests)
		for j, i := range keys {
			visit(i, ests[j])
		}
	} else {
		forEachCandidate(s, func() float64 { return threshold }, visit)
	}
	sortDeviators(out)
	return out
}

// TopK returns the k coordinates with the largest estimated deviation
// from the bias, sorted by decreasing deviation (ties by index), from
// an O(k)-size selection heap. Once the heap holds k coordinates, a
// later one enters only by deviating more than the heap's minimum — a
// tie loses to the smaller index already held — so that minimum bounds
// what is left to read. On a sketch that lists its heavy buckets'
// keys, the heap starts from keys 0..k−1 and the keys of the k
// heaviest buckets, and only the listed keys that can beat its minimum
// are read; otherwise the minimum is the bound of the sketch's range
// scan. Either way, the answer is the full scan's.
func TopK(s BiasedSketch, k int) []Deviator {
	if k <= 0 {
		return nil
	}
	beta := s.Bias()
	h := &devMinHeap{}
	offer := func(i int, est float64) {
		d := Deviator{Index: i, Estimate: est, Deviation: math.Abs(est - beta)}
		if h.Len() < k {
			heap.Push(h, d)
		} else if less((*h)[0], d) {
			(*h)[0] = d
			heap.Fix(h, 0)
		}
	}
	if !topKFromBuckets(s, k, beta, h, offer) {
		*h = (*h)[:0]
		// Once the heap is full its root's deviation never falls: a
		// replacement deviates more, and sinks only below a smaller
		// child. A NaN never moves once pushed, so it either stays at
		// the root, where it bounds nothing, or hides only what sits
		// below it.
		bound := func() float64 {
			if h.Len() < k {
				return math.Inf(-1)
			}
			return (*h)[0].Deviation
		}
		forEachCandidate(s, bound, offer)
	}
	out := make([]Deviator, h.Len())
	copy(out, *h)
	sortDeviators(out)
	return out
}

// topKFromBuckets fills h through offer as the full scan would, from
// the sketch's heavy buckets, and reports whether it could; on false
// the caller empties h and scans. Keys 0..k−1 fill the heap first, in
// the full scan's order. Only a NaN inside the heap makes the answer
// depend on the order keys are offered in, and a NaN never enters a
// full heap (no deviation is less than it), so one among them sends
// the call to the scan. The keys of the k heaviest buckets then raise
// the heap's minimum, and the bound one ulp below it keeps a tie a
// candidate: a tied key with a smaller index beats the minimum. Each
// top-k key deviates by at least that minimum, so the candidates hold
// every one not yet offered. A key offered again is refused again
// unless it is in the heap, so the candidates skip the heap's keys.
func topKFromBuckets(s BiasedSketch, k int, beta float64, h *devMinHeap, offer func(i int, est float64)) bool {
	cs, ok := s.(candidateSource)
	n := s.Dim()
	if !ok || n <= k {
		return false
	}
	limit := n / candidateShare
	keys := make([]int, k)
	for i := range keys {
		keys[i] = i
	}
	ests := make([]float64, k)
	queryKeys(s, keys, ests)
	if slices.ContainsFunc(ests, func(est float64) bool { return math.IsNaN(est - beta) }) {
		return false
	}
	for j, i := range keys {
		offer(i, ests[j])
	}
	offerKeys := func(keys []int) {
		ests = slices.Grow(ests[:0], len(keys))[:len(keys)]
		queryKeys(s, keys, ests)
		for j, i := range keys {
			offer(i, ests[j])
		}
	}
	if keys, ok = cs.SeedKeys(k, limit, keys[:0]); !ok {
		return false
	}
	offerKeys(slices.DeleteFunc(keys, func(i int) bool { return i < k }))
	held := make([]int, h.Len())
	for j, d := range *h {
		held[j] = d.Index
	}
	slices.Sort(held)
	tau := math.Nextafter((*h)[0].Deviation, math.Inf(-1))
	if keys, ok = cs.Candidates(tau, limit, keys[:0]); !ok {
		return false
	}
	offerKeys(slices.DeleteFunc(keys, func(i int) bool {
		_, found := slices.BinarySearch(held, i)
		return found
	}))
	return true
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
