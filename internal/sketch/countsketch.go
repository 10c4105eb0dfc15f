package sketch

import (
	"fmt"
	"math/rand"

	"repro/internal/hashing"
)

// CountSketch is the Count-Sketch of Charikar, Chen and Farach-Colton
// (Definition 2 / Theorem 2 of the paper): each row pairs a bucket
// hash h_t with a pairwise random sign r_t; updates add r_t(i)·delta
// and queries take the median over rows of r_t(i)·bucket. It achieves
// the ℓ∞/ℓ2 guarantee ‖x̂−x‖∞ = O(1/√k)·Err_2^k(x).
type CountSketch struct {
	tb    table
	signs hashing.SignFamily
	buf   []float64
	sbuf  []float64 // per-row signs, reused across UpdateBatch calls
}

// NewCountSketch creates a Count-Sketch with the given shape. Invalid
// configurations return an ErrConfig-wrapped error.
//
// The sign family is drawn from r after the table's hash family — the
// same order as every prior release, so sketches keep their exact
// seeds.
func NewCountSketch(cfg Config, r *rand.Rand) (*CountSketch, error) {
	hash, err := drawHash(cfg, r)
	if err != nil {
		return nil, err
	}
	return NewCountSketchOn(cfg, hash, hashing.NewSignFamily(r, cfg.Depth))
}

// NewCountSketchOn creates a zeroed Count-Sketch on bucket hash and
// sign families the caller owns and shares read-only, as
// NewCountMedianOn does for Algorithm 4's signed column sums ψ.
// Families that do not fit cfg (length Depth, hash range Rows) return
// an ErrConfig-wrapped error.
func NewCountSketchOn(cfg Config, hash hashing.Family, signs hashing.SignFamily) (*CountSketch, error) {
	tb, err := newTableOn(cfg, hash)
	if err != nil {
		return nil, err
	}
	if len(signs) != cfg.Depth {
		return nil, fmt.Errorf("%w: %d row signs for depth %d", ErrConfig, len(signs), cfg.Depth)
	}
	return &CountSketch{tb: tb, signs: signs, buf: make([]float64, cfg.Depth)}, nil
}

// Update applies x[i] += delta.
//
//sketch:hotpath
func (c *CountSketch) Update(i int, delta float64) {
	c.tb.checkIndex(i)
	u := uint64(i)
	cells := c.tb.cells
	for t, h := range c.tb.hash {
		cells[t][h.Hash(u)] += c.signs[t].SignFloat(u) * delta
	}
}

// growSbuf ensures the per-row sign scratch covers an n-element batch;
// growth helper kept out of the tagged hot path.
func (c *CountSketch) growSbuf(n int) {
	if cap(c.sbuf) < n {
		c.sbuf = make([]float64, n)
	}
}

// UpdateBatch applies x[idx[j]] += r_t(idx[j])·deltas[j] for every j,
// row-major: each row's bucket hash and sign function run over the
// whole batch before the row's counters absorb it. Equivalent to the
// element-wise Update loop.
//
//sketch:hotpath
func (c *CountSketch) UpdateBatch(idx []int, deltas []float64) {
	c.tb.checkBatch(idx, deltas)
	c.growSbuf(len(idx))
	sg := c.sbuf[:len(idx)]
	for t, row := range c.tb.cells {
		c.signs.SignFloatMany(t, idx, sg)
		for j, b := range c.tb.hashRow(t, idx) {
			row[b] += sg[j] * deltas[j]
		}
	}
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j.
// Each row's bucket hash and sign function run over the whole batch
// (one coefficient load per row each) before the signed buckets are
// gathered; the median then runs per element in the same row order as
// Query, so results are bit-identical to the element-wise Query loop.
// Scratch is borrowed from the package pool per call, so concurrent
// QueryBatch calls on a quiescent sketch are safe.
//
//sketch:hotpath
func (c *CountSketch) QueryBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
	QueryBatchMedian(c.tb.cfg.Depth, idx, out, 0, c)
}

// GatherRow implements BatchRecovery: row t's sign-corrected bucket
// values for the tile. Used by QueryBatchMedian, not meant for direct
// callers.
//
//sketch:hotpath
func (c *CountSketch) GatherRow(t int, tile []int, o []float64, sc *QScratch) {
	c.tb.gatherRowValues(t, tile, o, sc)
	sg := sc.F1[:len(tile)]
	c.signs.SignFloatMany(t, tile, sg)
	for j := range o {
		o[j] *= sg[j]
	}
}

// Combine implements BatchRecovery: the Table 1 median.
//
//sketch:hotpath
func (c *CountSketch) Combine(vals []float64, _ *QScratch) float64 { return medianOf(vals) }

// Query estimates x[i] as the median over rows of the signed bucket.
//
//sketch:hotpath
func (c *CountSketch) Query(i int) float64 {
	c.tb.checkIndex(i)
	c.tb.gatherPoint(i, c.buf)
	u := uint64(i)
	for t, v := range c.buf {
		c.buf[t] = c.signs.SignFloat(t, u) * v
	}
	return medianOf(c.buf)
}

// Dim returns the vector dimension n.
func (c *CountSketch) Dim() int { return c.tb.dim() }

// Words returns the sketch size in 64-bit words.
func (c *CountSketch) Words() int { return c.tb.words() }

// MergeFrom adds another CountSketch with identical shape and seeds.
func (c *CountSketch) MergeFrom(other Linear) error {
	o, ok := other.(*CountSketch)
	if !ok || !c.tb.sameShape(&o.tb) {
		return ErrIncompatible
	}
	if !c.signs.Equal(o.signs) {
		return ErrIncompatible
	}
	c.tb.mergeFrom(&o.tb)
	return nil
}

// Marshal serializes the counter state.
func (c *CountSketch) Marshal() []byte { return c.tb.marshalCells() }

// AppendCells appends the counters to dst in Marshal's layout.
func (c *CountSketch) AppendCells(dst []byte) []byte { return c.tb.appendCells(dst) }

// Unmarshal restores counter state written by Marshal.
func (c *CountSketch) Unmarshal(b []byte) error { return c.tb.unmarshalCells(b) }

// Rows returns the counter rows, which stay in place for the sketch's
// life. Callers must not modify them.
func (c *CountSketch) Rows() [][]float64 { return c.tb.cells }

// CheckIndex panics unless 0 <= i < Dim(), with Query's message, for
// the recovery algorithms layered on top of this sketch.
func (c *CountSketch) CheckIndex(i int) { c.tb.checkIndex(i) }

// CheckIndexBatch validates a query batch (matching lengths, in-range
// indexes) without touching any state, for the recovery algorithms
// layered on top of this sketch.
func (c *CountSketch) CheckIndexBatch(idx []int, out []float64) { c.tb.checkQueryBatch(idx, out) }
