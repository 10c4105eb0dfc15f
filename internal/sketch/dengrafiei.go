package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// DengRafiei is the bias-corrected Count-Min estimator of Deng and
// Rafiei [14], sketched in §2 of the paper: when recovering a
// coordinate mapped to a bucket, subtract an estimate of the noise in
// that bucket obtained by averaging the mass in all the *other*
// buckets of the row, then combine rows by median. Section 2 notes the
// resulting quality is only comparable to Count-Sketch — it cannot
// exploit a data bias the way the paper's ℓ1/ℓ2-S/R do; we implement
// it so that claim can be checked empirically.
//
// The estimator for row t is
//
//	x̂_t(i) = bucket_t(i) − (total − bucket_t(i)) / (s − 1),
//
// where total is the running sum of all updates (the row mass).
type DengRafiei struct {
	tb    table
	total float64
	buf   []float64
}

// NewDengRafiei creates a Deng–Rafiei corrected Count-Min sketch.
// Invalid configurations (including Rows < 2, which the
// noise-averaging denominator s−1 cannot tolerate) return an
// ErrConfig-wrapped error.
func NewDengRafiei(cfg Config, r *rand.Rand) (*DengRafiei, error) {
	if cfg.Rows < 2 {
		return nil, fmt.Errorf("%w: DengRafiei needs at least 2 buckets per row", ErrConfig)
	}
	tb, err := newTable(cfg, r)
	if err != nil {
		return nil, err
	}
	return &DengRafiei{tb: tb, buf: make([]float64, cfg.Depth)}, nil
}

// Update applies x[i] += delta.
//
//sketch:hotpath
func (c *DengRafiei) Update(i int, delta float64) {
	c.tb.checkIndex(i)
	c.tb.addPoint(i, delta)
	c.total += delta
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j, row-major,
// folding the batch into the running total once. Equivalent to the
// element-wise Update loop.
//
//sketch:hotpath
func (c *DengRafiei) UpdateBatch(idx []int, deltas []float64) {
	c.tb.checkBatch(idx, deltas)
	c.tb.addBatch(idx, deltas)
	for _, d := range deltas {
		c.total += d
	}
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j:
// a row-major gather of the noise-corrected bucket values (one hash-
// coefficient load per row), then the per-element median in the same
// row order as Query — results are bit-identical to the element-wise
// Query loop. Scratch is borrowed from the package pool per call, so
// concurrent QueryBatch calls on a quiescent sketch are safe.
//
//sketch:hotpath
func (c *DengRafiei) QueryBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
	QueryBatchMedian(c.tb.cfg.Depth, idx, out, 0, c)
}

// GatherRow implements BatchRecovery: row t's noise-corrected bucket
// values for the tile. The running total is re-read per row — the same
// value every time on the quiescent sketches batched queries require.
// Used by QueryBatchMedian, not meant for direct callers.
//
//sketch:hotpath
func (c *DengRafiei) GatherRow(t int, tile []int, o []float64, sc *QScratch) {
	c.tb.gatherRowValues(t, tile, o, sc)
	s1 := float64(c.tb.cfg.Rows - 1)
	total := c.total
	for j, v := range o {
		o[j] = v - (total-v)/s1
	}
}

// Combine implements BatchRecovery: the Table 1 median.
//
//sketch:hotpath
func (c *DengRafiei) Combine(vals []float64, _ *QScratch) float64 { return medianOf(vals) }

// Query estimates x[i] as the median over rows of the noise-corrected
// bucket values.
//
//sketch:hotpath
func (c *DengRafiei) Query(i int) float64 {
	c.tb.checkIndex(i)
	c.tb.gatherPoint(i, c.buf)
	s1 := float64(c.tb.cfg.Rows - 1)
	for t, v := range c.buf {
		c.buf[t] = v - (c.total-v)/s1
	}
	return medianOf(c.buf)
}

// Dim returns the vector dimension n.
func (c *DengRafiei) Dim() int { return c.tb.dim() }

// Words returns the sketch size in 64-bit words (+1 for the total).
func (c *DengRafiei) Words() int { return c.tb.words() + 1 }

// Marshal serializes the counter matrix followed by the running total
// (8 bytes, little endian).
func (c *DengRafiei) Marshal() ([]byte, error) {
	cells := c.tb.marshalCells()
	out := make([]byte, len(cells)+8)
	copy(out, cells)
	binary.LittleEndian.PutUint64(out[len(cells):], math.Float64bits(c.total))
	return out, nil
}

// Unmarshal restores state captured by Marshal on a sketch built with
// the same configuration and seeds.
func (c *DengRafiei) Unmarshal(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("sketch: DengRafiei payload %d bytes, want at least 8", len(b))
	}
	if err := c.tb.unmarshalCells(b[:len(b)-8]); err != nil {
		return err
	}
	c.total = math.Float64frombits(binary.LittleEndian.Uint64(b[len(b)-8:]))
	return nil
}

// MergeFrom adds another DengRafiei with identical shape and seeds.
// The estimator is linear: both the cells and the running total add.
func (c *DengRafiei) MergeFrom(other Linear) error {
	o, ok := other.(*DengRafiei)
	if !ok || !c.tb.sameShape(&o.tb) {
		return ErrIncompatible
	}
	c.tb.mergeFrom(&o.tb)
	c.total += o.total
	return nil
}
