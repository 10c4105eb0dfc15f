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
// rows. Every reported estimate is a QueryBatch value, so every path
// answers bit for bit as the full scan of QueryBatch estimates does.
// That full scan is the tests' oracle: a sketch whose key lists refuse
// and whose range scan keeps every key.
package heavyhitter

import (
	"container/heap"
	"math"
	"slices"
	"sort"
)

// BiasedSketch is the surface detection reads; core.SR has it in both
// schemes.
type BiasedSketch interface {
	Bias() float64
	Dim() int
	// QueryBatch writes x̂_idx[j] into out[j] for every j.
	QueryBatch(idx []int, out []float64)
	// ScanRange writes into idx and out, in increasing key order, the
	// keys of [lo, hi) whose deviation may exceed tau, with their
	// QueryBatch estimates, and returns how many; every key it leaves
	// out deviates by at most tau, and a tau that is not positive and
	// finite leaves none out.
	ScanRange(lo, hi int, tau float64, idx []int, out []float64) int
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

// Deviator is one reported outlier.
type Deviator struct {
	Index     int
	Estimate  float64 // x̂_i
	Deviation float64 // |x̂_i − β̂|
}

// candidateShare sets the most keys the bucket path lists, n /
// candidateShare; beyond that TopK and Scan take the range scan.
const candidateShare = 8

// scanChunk is the batch size of the range scan: large enough to
// amortize per-row hash-coefficient loads, small enough that the
// per-chunk scratch stays cache-resident. The scan reads its bound
// once per chunk.
const scanChunk = 1024

// forEachCandidate calls visit(i, x̂_i), in increasing i, for every
// coordinate the range scan keeps at bound(), which it reads at the
// start of each chunk; every coordinate it skips deviates by at most
// the bound of its chunk.
func forEachCandidate(s BiasedSketch, bound func() float64, visit func(i int, est float64)) {
	n := s.Dim()
	idx := make([]int, scanChunk)
	out := make([]float64, scanChunk)
	for lo := 0; lo < n; lo += scanChunk {
		m := s.ScanRange(lo, min(lo+scanChunk, n), bound(), idx, out)
		for j := 0; j < m; j++ {
			visit(idx[j], out[j])
		}
	}
}

// Scan returns every coordinate whose estimated deviation from the
// bias exceeds threshold, sorted by decreasing deviation (ties by
// index). It fully queries only the keys of the sketch's heavy buckets
// that survive its median screen, or, when the sketch lists none (a
// guard fails, or they are too many), the coordinates its range scan
// cannot rule out. The answer is the full scan's.
func Scan(s BiasedSketch, threshold float64) []Deviator {
	beta := s.Bias()
	var out []Deviator
	visit := func(i int, est float64) {
		if dev := math.Abs(est - beta); dev > threshold {
			out = append(out, Deviator{Index: i, Estimate: est, Deviation: dev})
		}
	}
	if keys, ok := s.Candidates(threshold, s.Dim()/candidateShare, nil); ok {
		ests := make([]float64, len(keys))
		s.QueryBatch(keys, ests)
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
// what is left to read. The heap starts from keys 0..k−1 and the keys
// of the k heaviest buckets, and only the listed keys that can beat
// its minimum are read; when the sketch lists none, the minimum is the
// bound of its range scan. Either way, the answer is the full scan's.
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
	n := s.Dim()
	if n <= k {
		return false
	}
	limit := n / candidateShare
	keys := make([]int, k)
	for i := range keys {
		keys[i] = i
	}
	ests := make([]float64, k)
	s.QueryBatch(keys, ests)
	if slices.ContainsFunc(ests, func(est float64) bool { return math.IsNaN(est - beta) }) {
		return false
	}
	for j, i := range keys {
		offer(i, ests[j])
	}
	offerKeys := func(keys []int) {
		ests = slices.Grow(ests[:0], len(keys))[:len(keys)]
		s.QueryBatch(keys, ests)
		for j, i := range keys {
			offer(i, ests[j])
		}
	}
	keys, ok := s.SeedKeys(k, limit, keys[:0])
	if !ok {
		return false
	}
	offerKeys(slices.DeleteFunc(keys, func(i int) bool { return i < k }))
	held := make([]int, h.Len())
	for j, d := range *h {
		held[j] = d.Index
	}
	slices.Sort(held)
	tau := math.Nextafter((*h)[0].Deviation, math.Inf(-1))
	if keys, ok = s.Candidates(tau, limit, keys[:0]); !ok {
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
