package sketch

import (
	"math/rand"

	"repro/internal/hashing"
)

// CountMedian is the Count-Median sketch of Cormode and Muthukrishnan
// (Definition 1 / Theorem 1 of the paper): d independent CM-matrix
// rows; a point query returns the median over rows of the bucket the
// queried coordinate hashes into. It achieves the ℓ∞/ℓ1 guarantee
// ‖x̂−x‖∞ = O(1/k)·Err_1^k(x) with s = Θ(k), d = Θ(log n).
type CountMedian struct {
	tb  table
	buf []float64 // scratch for the per-query median
}

// NewCountMedian creates a Count-Median sketch with the given shape,
// drawing hash functions from r. Invalid configurations return an
// ErrConfig-wrapped error.
func NewCountMedian(cfg Config, r *rand.Rand) (*CountMedian, error) {
	hash, err := drawHash(cfg, r)
	if err != nil {
		return nil, err
	}
	return NewCountMedianOn(cfg, hash)
}

// NewCountMedianOn creates a zeroed Count-Median sketch on a row hash
// family the caller owns and shares read-only: the bias-aware recovery
// of Algorithm 2 owns the hashes and their column counts π, which the
// seed fixes, and builds every replica's counters on them. A family
// that does not fit cfg (length Depth, range Rows) returns an
// ErrConfig-wrapped error.
func NewCountMedianOn(cfg Config, hash hashing.Family) (*CountMedian, error) {
	tb, err := newTableOn(cfg, hash)
	if err != nil {
		return nil, err
	}
	return &CountMedian{tb: tb, buf: make([]float64, cfg.Depth)}, nil
}

// Update applies x[i] += delta.
//
//sketch:hotpath
func (c *CountMedian) Update(i int, delta float64) {
	c.tb.checkIndex(i)
	c.tb.addPoint(i, delta)
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j, row-major:
// each row's hash runs over the whole batch and the row stays cache-
// hot while it absorbs every element. Equivalent to the element-wise
// Update loop (each cell receives the same addends in the same order).
//
//sketch:hotpath
func (c *CountMedian) UpdateBatch(idx []int, deltas []float64) {
	c.tb.checkBatch(idx, deltas)
	c.tb.addBatch(idx, deltas)
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j.
// The bucket gather is row-major (one hash-coefficient load per row,
// cache-hot rows); the median then runs per element over the gathered
// column, in the same row order as Query, so results are bit-identical
// to the element-wise Query loop. Scratch is borrowed from the package
// pool per call, so concurrent QueryBatch calls on a quiescent sketch
// are safe.
//
//sketch:hotpath
func (c *CountMedian) QueryBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
	QueryBatchMedian(c.tb.cfg.Depth, idx, out, 0, c)
}

// GatherRow implements BatchRecovery: row t's bucket values for the
// tile. Used by QueryBatchMedian, not meant for direct callers.
//
//sketch:hotpath
func (c *CountMedian) GatherRow(t int, tile []int, o []float64, sc *QScratch) {
	c.tb.gatherRowValues(t, tile, o, sc)
}

// Combine implements BatchRecovery: the Table 1 median.
//
//sketch:hotpath
func (c *CountMedian) Combine(vals []float64, _ *QScratch) float64 { return medianOf(vals) }

// Query estimates x[i] as the median over rows of the hashed bucket.
//
//sketch:hotpath
func (c *CountMedian) Query(i int) float64 {
	c.tb.checkIndex(i)
	c.tb.gatherPoint(i, c.buf)
	return medianOf(c.buf)
}

// Dim returns the vector dimension n.
func (c *CountMedian) Dim() int { return c.tb.dim() }

// Words returns the sketch size in 64-bit words.
func (c *CountMedian) Words() int { return c.tb.words() }

// MergeFrom adds another CountMedian with identical shape and seeds.
func (c *CountMedian) MergeFrom(other Linear) error {
	o, ok := other.(*CountMedian)
	if !ok || !c.tb.sameShape(&o.tb) {
		return ErrIncompatible
	}
	c.tb.mergeFrom(&o.tb)
	return nil
}

// Marshal serializes the counter state (not the hash seeds; in the
// distributed model hash functions are shared up front by the
// coordinator, §5.5 footnote 4).
func (c *CountMedian) Marshal() []byte { return c.tb.marshalCells() }

// AppendCells appends the counters to dst in Marshal's layout.
func (c *CountMedian) AppendCells(dst []byte) []byte { return c.tb.appendCells(dst) }

// Unmarshal restores counter state written by Marshal.
func (c *CountMedian) Unmarshal(b []byte) error { return c.tb.unmarshalCells(b) }

// Rows returns the counter rows, which stay in place for the sketch's
// life. Callers must not modify them.
func (c *CountMedian) Rows() [][]float64 { return c.tb.cells }

// CheckIndex panics unless 0 <= i < Dim(), with Query's message, for
// the recovery algorithms layered on top of this sketch.
func (c *CountMedian) CheckIndex(i int) { c.tb.checkIndex(i) }

// CheckIndexBatch validates a query batch (matching lengths, in-range
// indexes) without touching any state, for the recovery algorithms
// layered on top of this sketch.
func (c *CountMedian) CheckIndexBatch(idx []int, out []float64) { c.tb.checkQueryBatch(idx, out) }
