// Package vecmath implements the vector statistics used throughout the
// paper: norms, mean/median/variance (Table 1), the tail error
// Err_p^k(x), and exact computation of min_β Err_p^k(x − β) — the right
// hand side of the paper's headline guarantee (Inequality (4)). The
// exact optimum is used as ground truth by tests and as the "theory
// column" in experiment reports.
package vecmath

import (
	"math"
	"sort"
)

// Norm1 returns the ℓ1 norm of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the ℓ∞ norm of x; 0 for an empty vector.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Mean returns the arithmetic mean of x; 0 for an empty vector.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Median returns the median per Table 1 of the paper: the middle
// element for odd length, the average of the two middle elements for
// even length. It does not modify x. It returns 0 for an empty vector.
func Median(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	tmp := append([]float64(nil), x...)
	sort.Float64s(tmp)
	return MedianSorted(tmp)
}

// MedianSorted returns the median of an already-sorted vector.
func MedianSorted(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// Variance returns the population variance σ²(x) per Table 1;
// 0 for an empty vector.
func Variance(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	mu := Mean(x)
	var s float64
	for _, v := range x {
		d := v - mu
		s += d * d
	}
	return s / float64(n)
}

// ErrK returns Err_p^k(x) = min over k-sparse x' of ||x − x'||_p, i.e.
// the ℓp norm of x with the k largest-magnitude coordinates zeroed.
// p must be 1 or 2. k is clamped to [0, len(x)].
func ErrK(x []float64, k, p int) float64 {
	if p != 1 && p != 2 {
		panic("vecmath: ErrK requires p == 1 or p == 2")
	}
	n := len(x)
	if k < 0 {
		k = 0
	}
	if k >= n {
		return 0
	}
	abs := make([]float64, n)
	for i, v := range x {
		abs[i] = math.Abs(v)
	}
	sort.Float64s(abs)
	// Tail = all but the k largest magnitudes = abs[:n-k].
	var s float64
	if p == 1 {
		for _, v := range abs[:n-k] {
			s += v
		}
		return s
	}
	for _, v := range abs[:n-k] {
		s += v * v
	}
	return math.Sqrt(s)
}

// MinBetaErrK returns the pair (β*, Err_p^k(x − β*)) minimizing
// Err_p^k(x − β) over all real β — the bias of x per Definition (5) of
// the paper, computed exactly.
//
// The kept coordinates for any fixed β are those with the n−k smallest
// deviations |x_i − β|, which form a contiguous window of the sorted
// coordinates; sweeping all windows of width n−k with prefix sums gives
// the exact optimum in O(n log n) time. For p=1 the optimal β of a
// window is its median, for p=2 its mean.
func MinBetaErrK(x []float64, k, p int) (beta, err float64) {
	if p != 1 && p != 2 {
		panic("vecmath: MinBetaErrK requires p == 1 or p == 2")
	}
	n := len(x)
	if k < 0 {
		k = 0
	}
	if k >= n {
		// Any β attains zero error; report β = median/mean of x for
		// determinism (the whole vector can be dropped).
		if n == 0 {
			return 0, 0
		}
		if p == 1 {
			return Median(x), 0
		}
		return Mean(x), 0
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	// Center on the median before computing prefix sums; the p=2 cost
	// uses the cancellation-prone sum² formula, and centering keeps the
	// intermediate magnitudes small so large common offsets in x do not
	// destroy precision. The result is shifted back at return.
	center := sorted[n/2]
	for i := range sorted {
		sorted[i] -= center
	}
	m := n - k // window width

	// Prefix sums of values and squares.
	pre := make([]float64, n+1)
	pre2 := make([]float64, n+1)
	for i, v := range sorted {
		pre[i+1] = pre[i] + v
		pre2[i+1] = pre2[i] + v*v
	}

	best := math.Inf(1)
	var bestBeta float64
	for l := 0; l+m <= n; l++ {
		var cost, b float64
		if p == 1 {
			h := m / 2
			// Window median; cost = (sum of top part) − (sum of bottom part).
			b = MedianSorted(sorted[l : l+m])
			upper := pre[l+m] - pre[l+m-h]
			lower := pre[l+h] - pre[l]
			cost = upper - lower
		} else {
			sum := pre[l+m] - pre[l]
			sum2 := pre2[l+m] - pre2[l]
			b = sum / float64(m)
			ss := sum2 - sum*sum/float64(m)
			if ss < 0 {
				ss = 0 // guard against tiny negative round-off
			}
			cost = math.Sqrt(ss)
		}
		if cost < best {
			best = cost
			bestBeta = b
		}
	}
	return bestBeta + center, best
}

// AvgAbsErr returns (1/n)·||x − y||_1, the paper's "average error"
// measurement for point query (§5.1). Panics if lengths differ.
func AvgAbsErr(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vecmath: AvgAbsErr length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	var s float64
	for i := range x {
		s += math.Abs(x[i] - y[i])
	}
	return s / float64(len(x))
}

// MaxAbsErr returns ||x − y||_∞, the paper's "maximum error"
// measurement for point query (§5.1). Panics if lengths differ.
func MaxAbsErr(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vecmath: MaxAbsErr length mismatch")
	}
	var m float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}

// TopKDeviating returns the indices of the k coordinates of x that
// deviate the most from beta, in arbitrary order. These are the
// "outliers" O in the proof of Lemma 6. k is clamped to [0, len(x)].
func TopKDeviating(x []float64, beta float64, k int) []int {
	n := len(x)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da := math.Abs(x[idx[a]] - beta)
		db := math.Abs(x[idx[b]] - beta)
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// Percentile returns the q-th percentile (q in [0,1]) of x using
// nearest-rank on a sorted copy. 0 for empty input.
func Percentile(x []float64, q float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	tmp := append([]float64(nil), x...)
	sort.Float64s(tmp)
	i := int(q * float64(n-1))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return tmp[i]
}
