package sketch

import "math/rand"

// CountMin is the classical Count-Min sketch [12]: same sketching
// matrix as Count-Median, but a point query returns the minimum over
// rows instead of the median. It never underestimates on non-negative
// streams and has one-sided error O(1/k)·‖x‖₁ noise per bucket.
//
// The paper omits Count-Min from its plots because CM-CU strictly
// improves on it; we implement and bench it anyway for completeness.
type CountMin struct {
	tb table
}

// NewCountMin creates a Count-Min sketch with the given shape.
// Invalid configurations return an ErrConfig-wrapped error.
func NewCountMin(cfg Config, r *rand.Rand) (*CountMin, error) {
	tb, err := newTable(cfg, r)
	if err != nil {
		return nil, err
	}
	return &CountMin{tb: tb}, nil
}

// Update applies x[i] += delta.
//
//sketch:hotpath
func (c *CountMin) Update(i int, delta float64) {
	c.tb.checkIndex(i)
	c.tb.addPoint(i, delta)
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j, row-major:
// each row's hash runs over the whole batch and the row stays cache-
// hot while it absorbs every element. Equivalent to the element-wise
// Update loop (each cell receives the same addends in the same order).
//
//sketch:hotpath
func (c *CountMin) UpdateBatch(idx []int, deltas []float64) {
	c.tb.checkBatch(idx, deltas)
	c.tb.addBatch(idx, deltas)
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j,
// row-major: each row's hash runs over the whole batch (one coefficient
// load per row) and the per-element minimum folds row by row. Results
// are bit-identical to the element-wise Query loop.
//
//sketch:hotpath
func (c *CountMin) QueryBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
	c.tb.minRows(idx, out)
}

// Query estimates x[i] as the minimum bucket over rows.
//
//sketch:hotpath
func (c *CountMin) Query(i int) float64 {
	c.tb.checkIndex(i)
	return c.tb.minPoint(i)
}

// Dim returns the vector dimension n.
func (c *CountMin) Dim() int { return c.tb.dim() }

// Words returns the sketch size in 64-bit words.
func (c *CountMin) Words() int { return c.tb.words() }

// MergeFrom adds another CountMin with identical shape and seeds.
func (c *CountMin) MergeFrom(other Linear) error {
	o, ok := other.(*CountMin)
	if !ok || !c.tb.sameShape(&o.tb) {
		return ErrIncompatible
	}
	c.tb.mergeFrom(&o.tb)
	return nil
}

// Marshal serializes the counter state in the wire cell layout.
func (c *CountMin) Marshal() []byte { return c.tb.marshalCells() }

// Unmarshal restores counter state written by Marshal.
func (c *CountMin) Unmarshal(b []byte) error { return c.tb.unmarshalCells(b) }
