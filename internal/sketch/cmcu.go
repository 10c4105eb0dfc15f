package sketch

import "math/rand"

// CMCU is Count-Min with conservative update (Estan–Varghese [17],
// Goyal et al. [21]): on an increment, only the buckets that would
// otherwise fall below the new lower bound are raised. CM-CU strictly
// improves the accuracy of Count-Min on insert-only streams but loses
// linearity — it cannot be merged, which is exactly the drawback §2 of
// the paper points out for the distributed setting.
//
// Update supports arbitrary positive deltas using the standard
// weighted conservative rule: every bucket of i is raised to
// max(bucket, min_t bucket_t(i) + delta).
type CMCU struct {
	tb   table
	hbuf []int // d×batch bucket indexes, row-major, reused across UpdateBatch calls
}

// NewCMCU creates a conservative-update Count-Min sketch. Invalid
// configurations return an ErrConfig-wrapped error.
func NewCMCU(cfg Config, r *rand.Rand) (*CMCU, error) {
	tb, err := newTable(cfg, r)
	if err != nil {
		return nil, err
	}
	return &CMCU{tb: tb}, nil
}

// growHbuf ensures the row-major bucket-index scratch holds n entries;
// growth helper kept out of the tagged hot path.
func (c *CMCU) growHbuf(n int) {
	if cap(c.hbuf) < n {
		c.hbuf = make([]int, n)
	}
}

// Update applies a conservative increment of delta to coordinate i.
// Negative deltas are not representable under conservative update
// (the structure is insert-only); they panic.
//
//sketch:hotpath
func (c *CMCU) Update(i int, delta float64) {
	c.tb.checkIndex(i)
	if delta < 0 {
		panic("sketch: CMCU does not support negative updates (insert-only)")
	}
	cells := c.tb.cells
	depth := len(cells)
	c.growHbuf(depth)
	hb := c.hbuf[:depth]
	c.tb.hashPoint(uint64(i), hb)
	m := cells[0][hb[0]]
	for t := 1; t < depth; t++ {
		m = min(m, cells[t][hb[t]])
	}
	target := m + delta
	for t, b := range hb {
		if cells[t][b] < target {
			cells[t][b] = target
		}
	}
}

// UpdateBatch applies the batch of conservative increments. The hash
// evaluation is row-major (one coefficient load per row for the whole
// batch), but the conservative raise stays element-ordered — each
// element's row-wise minimum depends on every earlier element — so the
// final counters exactly match the element-wise Update loop.
//
//sketch:hotpath
func (c *CMCU) UpdateBatch(idx []int, deltas []float64) {
	c.tb.checkBatch(idx, deltas)
	for _, d := range deltas {
		if d < 0 {
			panic("sketch: CMCU does not support negative updates (insert-only)")
		}
	}
	cells := c.tb.cells
	m := len(idx)
	depth := len(cells)
	c.growHbuf(depth * m)
	for t := 0; t < depth; t++ {
		c.tb.hash.HashMany(t, idx, c.hbuf[t*m:(t+1)*m])
	}
	for j := 0; j < m; j++ {
		min := cells[0][c.hbuf[j]]
		for t := 1; t < depth; t++ {
			if v := cells[t][c.hbuf[t*m+j]]; v < min {
				min = v
			}
		}
		target := min + deltas[j]
		for t := 0; t < depth; t++ {
			b := c.hbuf[t*m+j]
			if cells[t][b] < target {
				cells[t][b] = target
			}
		}
	}
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j.
// Queries read counters without the conservative-raise coupling that
// forces element order on the write side, so the read path is plainly
// row-major and bit-identical to the element-wise Query loop.
//
//sketch:hotpath
func (c *CMCU) QueryBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
	c.tb.minRows(idx, out)
}

// Query estimates x[i] as the minimum bucket over rows.
//
//sketch:hotpath
func (c *CMCU) Query(i int) float64 {
	c.tb.checkIndex(i)
	return c.tb.minPoint(i)
}

// Dim returns the vector dimension n.
func (c *CMCU) Dim() int { return c.tb.dim() }

// Words returns the sketch size in 64-bit words.
func (c *CMCU) Words() int { return c.tb.words() }

// Marshal serializes the counter matrix. CM-CU is not linear — a
// restored sketch resumes local ingestion, it cannot be merged.
func (c *CMCU) Marshal() []byte { return c.tb.marshalCells() }

// Unmarshal restores state captured by Marshal on a sketch built with
// the same configuration and seeds.
func (c *CMCU) Unmarshal(b []byte) error { return c.tb.unmarshalCells(b) }
