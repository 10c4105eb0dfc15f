package core

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/sketch"
)

// heavyScratch is the pooled scratch of SeedKeys and Candidates: the
// chosen buckets with their magnitudes, one bucket's listed keys, and
// a bitmap over the keys that is all zero between calls.
type heavyScratch struct {
	buckets []int
	mags    []float64
	keys    []int
	seen    []uint64
}

var heavyPool = sync.Pool{New: func() any { return new(heavyScratch) }}

// perBucket bounds the keys of [0, n) in one of s buckets, about n/s
// in every row: the budget unit of the limit in SeedKeys and
// Candidates.
func perBucket(n, s int) int { return (n + s - 1) / s }

// SeedKeys appends to dst the keys of row 0's k heaviest buckets by
// de-biased magnitude |y − β̂ψ|, a NaN heaviest, and reports true:
// keys likely to deviate most, each once. It reports false, appending
// nothing, when they would number more than about limit, or when n
// exceeds the hash field.
func (l *SR) SeedKeys(k, limit int, dst []int) ([]int, bool) {
	inv := l.b.inverses()
	s := l.b.scfg.Rows
	k = min(k, s)
	if inv == nil || k*perBucket(l.b.cfg.N, s) > limit {
		return dst, false
	}
	if k <= 0 {
		return dst, true
	}
	beta := l.est.Bias()
	row, sum := l.rows[0], l.b.columnSums()[0]
	sc := heavyPool.Get().(*heavyScratch)
	defer heavyPool.Put(sc)
	// top and mags form a min-heap of the k heaviest buckets so far.
	top, mags := sc.buckets[:0], sc.mags[:0]
	for b := range row {
		m := math.Abs(row[b] - beta*sum[b])
		if m != m {
			m = math.Inf(1)
		}
		switch {
		case len(top) < k:
			top, mags = append(top, b), append(mags, m)
			for i := len(top) - 1; i > 0 && mags[(i-1)/2] > mags[i]; i = (i - 1) / 2 {
				p := (i - 1) / 2
				top[i], top[p], mags[i], mags[p] = top[p], top[i], mags[p], mags[i]
			}
		case m > mags[0]:
			top[0], mags[0] = b, m
			for i := 0; ; {
				j := 2*i + 1
				if j >= k {
					break
				}
				if j+1 < k && mags[j+1] < mags[j] {
					j++
				}
				if mags[i] <= mags[j] {
					break
				}
				top[i], top[j], mags[i], mags[j] = top[j], top[i], mags[j], mags[i]
				i = j
			}
		}
	}
	sc.buckets, sc.mags = top, mags
	for _, b := range top {
		dst = inv[0].BucketKeys(dst, b)
	}
	return dst, true
}

// Candidates appends to dst, in increasing order, the keys whose
// deviation |x̂_i − β̂| may exceed tau, and reports true; every key it
// leaves out deviates by at most tau. A key that deviates by more has
// at least ⌈d/2⌉ rows above the screen's bound c in magnitude (see
// sketch.ScreenBound), so one of rows 0..⌊d/2⌋ puts it in a bucket
// whose |y − β̂ψ| is not at most c, a NaN bucket included. Candidates
// lists the keys of those heavy buckets through the rows' inverse
// hashes, deduplicates them in a bitmap, and screens them row by row
// as ScanMedian screens a range. It reports false, appending nothing,
// when the screen is unsound at tau, when the heavy buckets hold more
// than about limit keys, or when n exceeds the hash field.
func (l *SR) Candidates(tau float64, limit int, dst []int) ([]int, bool) {
	d := l.b.cfg.Depth
	beta := l.est.Bias()
	c, ok := sketch.ScreenBound(d, tau, beta)
	inv := l.b.inverses()
	if !ok || inv == nil {
		return dst, false
	}
	n, s := l.b.cfg.N, l.b.scfg.Rows
	per := perBucket(n, s)
	sums := l.b.columnSums()
	sc := heavyPool.Get().(*heavyScratch)
	defer heavyPool.Put(sc)
	heavy := sc.buckets[:0]
	for t := 0; t <= d/2; t++ {
		row, sum := l.rows[t], sums[t]
		for b := range row {
			if !(math.Abs(row[b]-beta*sum[b]) <= c) {
				heavy = append(heavy, t*s+b)
			}
		}
		if len(heavy)*per > limit {
			sc.buckets = heavy
			return dst, false
		}
	}
	sc.buckets = heavy
	words := (n + 63) / 64
	if len(sc.seen) < words {
		sc.seen = make([]uint64, words)
	}
	seen, keys := sc.seen[:words], sc.keys
	for _, tb := range heavy {
		keys = inv[tb/s].BucketKeys(keys[:0], tb%s)
		for _, x := range keys {
			seen[x>>6] |= 1 << (x & 63)
		}
	}
	sc.keys = keys
	start := len(dst)
	for w, word := range seen {
		if word == 0 {
			continue
		}
		seen[w] = 0
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(word))
		}
	}
	m := sketch.ScreenMedian(d, c, beta, l, dst[start:])
	return dst[:start+m], true
}
