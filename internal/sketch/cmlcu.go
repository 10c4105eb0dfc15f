package sketch

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultCMLBase is the log base used in §5.1 of the paper for
// Count-Min-Log with conservative update.
const DefaultCMLBase = 1.00025

// CMLCU is Count-Min-Log with conservative update (Pitel–Fouquier
// [29]): the buckets hold logarithmic counters instead of linear
// counts. A counter value c encodes the estimate
//
//	value(c) = (base^c − 1) / (base − 1),
//
// so each unit increment advances the counter with probability
// base^(−c), and conservative update only advances the counters that
// are at the row-wise minimum. Like CM-CU it is not linear.
//
// Weighted updates convert the target count to the log domain and
// round probabilistically, which coincides with repeated unit
// increments in expectation and is indistinguishable at the paper's
// base of 1.00025 (the counters are nearly linear).
type CMLCU struct {
	tb   table
	base float64
	lnB  float64
	rng  *rand.Rand
	hbuf []int // d×batch bucket indexes, row-major, reused across UpdateBatch calls
}

// NewCMLCU creates a Count-Min-Log sketch with the given shape and
// base. Pass DefaultCMLBase to mirror the paper's configuration.
// Invalid configurations (including base ≤ 1) return an
// ErrConfig-wrapped error.
func NewCMLCU(cfg Config, base float64, r *rand.Rand) (*CMLCU, error) {
	if base <= 1 {
		return nil, fmt.Errorf("%w: CMLCU base must exceed 1, got %v", ErrConfig, base)
	}
	tb, err := newTable(cfg, r)
	if err != nil {
		return nil, err
	}
	return &CMLCU{
		tb:   tb,
		base: base,
		lnB:  math.Log(base),
		rng:  rand.New(rand.NewSource(r.Int63())),
	}, nil
}

// value decodes a log counter into a linear-scale estimate.
func (c *CMLCU) value(counter float64) float64 {
	return (math.Exp(counter*c.lnB) - 1) / (c.base - 1)
}

// counter encodes a linear-scale count into the log domain.
func (c *CMLCU) counter(value float64) float64 {
	return math.Log1p(value*(c.base-1)) / c.lnB
}

// growHbuf ensures the row-major bucket-index scratch holds n entries;
// growth helper kept out of the tagged hot path.
func (c *CMLCU) growHbuf(n int) {
	if cap(c.hbuf) < n {
		c.hbuf = make([]int, n)
	}
}

// Update applies a conservative log-domain increment of delta to
// coordinate i. Negative deltas panic (insert-only structure).
//
//sketch:hotpath
func (c *CMLCU) Update(i int, delta float64) {
	c.tb.checkIndex(i)
	if delta < 0 {
		panic("sketch: CMLCU does not support negative updates (insert-only)")
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
	// Target counter after adding delta to the current estimate, with
	// probabilistic rounding of the fractional part so that repeated
	// small updates are unbiased.
	exact := c.counter(c.value(m) + delta)
	target := math.Floor(exact)
	if c.rng.Float64() < exact-target {
		target++
	}
	for t, b := range hb {
		if cells[t][b] < target {
			cells[t][b] = target
		}
	}
}

// UpdateBatch applies the batch of conservative log-domain increments.
// Hash evaluation is row-major; the conservative raise (and hence the
// probabilistic-rounding RNG draws) stays element-ordered, so the
// final counters exactly match the element-wise Update loop.
//
//sketch:hotpath
func (c *CMLCU) UpdateBatch(idx []int, deltas []float64) {
	c.tb.checkBatch(idx, deltas)
	for _, d := range deltas {
		if d < 0 {
			panic("sketch: CMLCU does not support negative updates (insert-only)")
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
		exact := c.counter(c.value(min) + deltas[j])
		target := math.Floor(exact)
		if c.rng.Float64() < exact-target {
			target++
		}
		for t := 0; t < depth; t++ {
			b := c.hbuf[t*m+j]
			if cells[t][b] < target {
				cells[t][b] = target
			}
		}
	}
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j:
// the row-major minimum gather of the Count-Min family, then a log-
// domain decode per element. Bit-identical to the element-wise Query
// loop, and — unlike Update — entirely deterministic: queries never
// touch the probabilistic-rounding RNG.
//
//sketch:hotpath
func (c *CMLCU) QueryBatch(idx []int, out []float64) {
	c.tb.checkQueryBatch(idx, out)
	c.tb.minRows(idx, out)
	for j, v := range out {
		out[j] = c.value(v)
	}
}

// Query estimates x[i] by decoding the minimum log counter.
//
//sketch:hotpath
func (c *CMLCU) Query(i int) float64 {
	c.tb.checkIndex(i)
	return c.value(c.tb.minPoint(i))
}

// Dim returns the vector dimension n.
func (c *CMLCU) Dim() int { return c.tb.dim() }

// Words returns the sketch size in 64-bit words. (A production CML
// would use narrow integer counters; we count cells to keep the
// size-versus-accuracy axes comparable across algorithms, matching how
// the paper plots all algorithms at equal word budgets.)
func (c *CMLCU) Words() int { return c.tb.words() }

// Marshal serializes the log-counter matrix. The probabilistic-
// rounding RNG is not part of the state: queries never touch it, and a
// restored sketch that keeps ingesting just continues with the fresh
// seed-derived stream.
func (c *CMLCU) Marshal() ([]byte, error) { return c.tb.marshalCells(), nil }

// Unmarshal restores state captured by Marshal on a sketch built with
// the same configuration, base, and seeds.
func (c *CMLCU) Unmarshal(b []byte) error { return c.tb.unmarshalCells(b) }
