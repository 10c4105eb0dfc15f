package core

import "math"

// This file adds an extension beyond the paper's API: an ℓ2-S/R sketch
// with the median-bucket estimator can estimate its *own* error scale. Theorem 4 bounds the point-query
// error by O(1/√k)·Err_2^k(x−β); the bias row w = Π(g)x already
// carries enough information to estimate that tail, because for a
// crowd bucket the de-biased residual w_i − β̂·π_i is a sum of π_i
// centered coordinates, so (w_i − β̂·π_i)/√π_i has standard deviation
// σ(x−β). A direct second moment over the *middle* buckets is biased
// low (those buckets are selected for small residuals), so we use the
// robust MAD estimator over all buckets instead: at most k of the s ≥
// 4k buckets are contaminated by outliers (Lemma 6's argument), well
// below the MAD's 50% breakdown point. σ̂ = 1.4826·median|r_i/√π_i|
// is calibrated for Gaussian-ish crowds; heavier-tailed crowds read a
// little low. Then Err ≈ √(n·σ̂²) — no second pass over the data and
// no extra space.

// tailEstimator is implemented by bias estimators that can report the
// de-biased tail scale.
type tailEstimator interface {
	tailSigma2(beta float64) (sigma2 float64, ok bool)
}

// TailEstimate returns an estimate of Err_2^k(x − β̂) — the quantity
// the Theorem 4 guarantee is expressed in — computed from the sketch
// itself, and reports ok=false when the configured bias estimator
// cannot provide one (only ℓ2-S/R's median-bucket estimator can; the
// mean and sampled-median estimators do not see bucket occupancies).
//
// Combined with Theorem 4, ±C·TailEstimate()/√k is a practical
// confidence band for point queries.
func (l *SR) TailEstimate() (est float64, ok bool) {
	te, can := l.est.(tailEstimator)
	if !can {
		return 0, false
	}
	sigma2, ok := te.tailSigma2(l.est.Bias())
	if !ok {
		return 0, false
	}
	n := float64(l.b.cfg.N)
	return math.Sqrt(n * sigma2), true
}

// tailSigma2 estimates the per-coordinate variance of x − β from the
// bucket residuals via the MAD (median absolute deviation), which
// tolerates the ≤ k outlier-contaminated buckets.
func (e *medianBucketEstimator) tailSigma2(beta float64) (float64, bool) {
	zs := make([]float64, 0, len(e.w))
	for id := range e.w {
		if e.pi[id] == 0 {
			continue
		}
		r := e.w[id] - beta*e.pi[id]
		z := r / math.Sqrt(e.pi[id])
		if z < 0 {
			z = -z
		}
		zs = append(zs, z)
	}
	if len(zs) == 0 {
		return 0, false
	}
	ids := make([]int, len(zs))
	for i := range ids {
		ids[i] = i
	}
	insertionSortByKey(ids, func(i int) float64 { return zs[i] })
	var med float64
	m := len(ids)
	if m%2 == 1 {
		med = zs[ids[m/2]]
	} else {
		med = (zs[ids[m/2-1]] + zs[ids[m/2]]) / 2
	}
	sigma := 1.4826 * med // Gaussian-consistent MAD scaling
	return sigma * sigma, true
}

// insertionSortByKey sorts ids by (key, id); bucket counts are a few
// thousand at most, and this avoids pulling package sort into the
// recovery hot path twice. For large s it falls back to a shell-sort
// style gap sequence to stay O(s^1.3)-ish.
func insertionSortByKey(ids []int, key func(int) float64) {
	n := len(ids)
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		if gap >= n {
			continue
		}
		for i := gap; i < n; i++ {
			v := ids[i]
			kv := key(v)
			j := i - gap
			for j >= 0 {
				kj := key(ids[j])
				if kj < kv || (kj == kv && ids[j] < v) {
					break
				}
				ids[j+gap] = ids[j]
				j -= gap
			}
			ids[j+gap] = v
		}
	}
}
