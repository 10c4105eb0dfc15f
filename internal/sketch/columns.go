package sketch

// This file exposes the per-row structure the bias-aware recovery
// algorithms need: Algorithm 2 subtracts β̂·π_t from row t of the
// Count-Median sketch, where π_t is the coordinate-wise sum of the
// columns of Π(h_t) (bucket occupancy counts); Algorithm 4 subtracts
// β̂·ψ_t from row t of the Count-Sketch, where ψ_t is the signed
// column sum of Ψ(h_t, r_t). Both depend only on the hash functions,
// never on the data, so they are computed once and cached — in the
// distributed model they are "common knowledge" shared alongside the
// hash seeds (§5.5, footnote 4).

// ColumnCounts returns π for row t: π[b] = |{j : h_t(j) = b}|. The
// result is cached behind an atomic pointer — the caches are pure
// functions of the hash seeds, so concurrent first readers may compute
// them redundantly but always install identical values, and later
// readers see one immutable slice. Callers must not modify it.
func (c *CountMedian) ColumnCounts(t int) []float64 {
	if p := c.pis.Load(); p != nil {
		return (*p)[t]
	}
	pis := make([][]float64, c.tb.cfg.Depth)
	for r := range pis {
		pi := make([]float64, c.tb.cfg.Rows)
		for j := 0; j < c.tb.cfg.N; j++ {
			pi[c.tb.hash.Hash(r, uint64(j))]++
		}
		pis[r] = pi
	}
	c.pis.CompareAndSwap(nil, &pis)
	return (*c.pis.Load())[t]
}

// ShareColumnCounts adopts src's already-computed π caches when the
// two sketches share shape and hash seeds — π is seed-determined
// "common knowledge", so replicas of one configuration can skip the
// O(N·d) recompute (the Sharded refresh path does this between
// successive snapshots).
func (c *CountMedian) ShareColumnCounts(src *CountMedian) {
	if p := src.pis.Load(); p != nil && c.tb.sameShape(&src.tb) {
		c.pis.Store(p)
	}
}

// BucketIndex returns h_t(i), the bucket coordinate i occupies in row t.
func (c *CountMedian) BucketIndex(t, i int) int {
	return c.tb.hash.Hash(t, uint64(i))
}

// BucketIndexMany writes h_t(idx[j]) into out[j] for every j — the
// batch companion of BucketIndex, loading row t's hash coefficients
// once for the whole batch.
func (c *CountMedian) BucketIndexMany(t int, idx []int, out []int) {
	c.tb.hash.HashMany(t, idx, out)
}

// BucketIndexes writes h_t(i) for every row t into out[t] — the
// all-rows companion of BucketIndex for point queries.
//
//sketch:hotpath
func (c *CountMedian) BucketIndexes(i int, out []int) {
	c.tb.hashPoint(uint64(i), out)
}

// Bucket returns the raw value of bucket b in row t.
func (c *CountMedian) Bucket(t, b int) float64 { return c.tb.rows()[t][b] }

// Row returns row t's counters. Callers must not modify the slice.
func (c *CountMedian) Row(t int) []float64 { return c.tb.rows()[t] }

// CheckIndexBatch validates a query batch (matching lengths, in-range
// indexes) without touching any state, for the recovery algorithms
// layered on top of this sketch.
func (c *CountMedian) CheckIndexBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
}

// SignedColumnSums returns ψ for row t: ψ[b] = Σ_{j: h_t(j)=b} r_t(j).
// The result is cached behind an atomic pointer — see ColumnCounts for
// the concurrency contract. Callers must not modify it.
func (c *CountSketch) SignedColumnSums(t int) []float64 {
	if p := c.psis.Load(); p != nil {
		return (*p)[t]
	}
	psis := make([][]float64, c.tb.cfg.Depth)
	for r := range psis {
		psi := make([]float64, c.tb.cfg.Rows)
		for j := 0; j < c.tb.cfg.N; j++ {
			u := uint64(j)
			psi[c.tb.hash.Hash(r, u)] += c.signs.SignFloat(r, u)
		}
		psis[r] = psi
	}
	c.psis.CompareAndSwap(nil, &psis)
	return (*c.psis.Load())[t]
}

// ShareSignedColumnSums adopts src's already-computed ψ caches when
// the two sketches share shape, hash seeds, and sign seeds — the
// Count-Sketch analogue of ShareColumnCounts.
func (c *CountSketch) ShareSignedColumnSums(src *CountSketch) {
	p := src.psis.Load()
	if p == nil || !c.tb.sameShape(&src.tb) {
		return
	}
	if !c.signs.Equal(src.signs) {
		return
	}
	c.psis.Store(p)
}

// BucketIndex returns h_t(i) for the Count-Sketch row t.
func (c *CountSketch) BucketIndex(t, i int) int {
	return c.tb.hash.Hash(t, uint64(i))
}

// BucketIndexMany writes h_t(idx[j]) into out[j] for every j — the
// batch companion of BucketIndex, loading row t's hash coefficients
// once for the whole batch.
func (c *CountSketch) BucketIndexMany(t int, idx []int, out []int) {
	c.tb.hash.HashMany(t, idx, out)
}

// BucketIndexes writes h_t(i) for every row t into out[t] — the
// all-rows companion of BucketIndex for point queries.
//
//sketch:hotpath
func (c *CountSketch) BucketIndexes(i int, out []int) {
	c.tb.hashPoint(uint64(i), out)
}

// Bucket returns the raw (signed-sum) value of bucket b in row t.
func (c *CountSketch) Bucket(t, b int) float64 { return c.tb.rows()[t][b] }

// Row returns row t's counters. Callers must not modify the slice.
func (c *CountSketch) Row(t int) []float64 { return c.tb.rows()[t] }

// SignOf returns r_t(i) as a float64.
func (c *CountSketch) SignOf(t, i int) float64 {
	return c.signs.SignFloat(t, uint64(i))
}

// SignOfMany writes r_t(idx[j]) into out[j] for every j — the batch
// companion of SignOf.
func (c *CountSketch) SignOfMany(t int, idx []int, out []float64) {
	c.signs.SignFloatMany(t, idx, out)
}

// SignsOf writes r_t(i) for every row t into out[t] — the all-rows
// companion of SignOf for point queries.
//
//sketch:hotpath
func (c *CountSketch) SignsOf(i int, out []float64) {
	u := uint64(i)
	for t, s := range c.signs {
		out[t] = s.SignFloat(u)
	}
}

// CheckIndexBatch validates a query batch (matching lengths, in-range
// indexes) without touching any state, for the recovery algorithms
// layered on top of this sketch.
func (c *CountSketch) CheckIndexBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
}
