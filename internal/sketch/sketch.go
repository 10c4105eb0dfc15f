// Package sketch implements the classical point-query sketches the
// paper builds on and compares against: Count-Min, Count-Median
// (Definition 1, Theorem 1), Count-Sketch (Definition 2, Theorem 2),
// Count-Min with conservative update (CM-CU), Count-Min-Log with
// conservative update (CML-CU), and the Deng–Rafiei bias-corrected
// Count-Min estimator.
//
// All sketches consume a stream of (index, delta) updates against an
// implicit frequency vector x ∈ R^n and answer point queries for
// individual coordinates. The linear ones (Count-Min, Count-Median,
// Count-Sketch) additionally support MergeFrom, which makes them
// directly usable in the distributed model of §1: sites sketch their
// local vectors and the coordinator sums the sketches.
package sketch

import (
	"errors"
	"fmt"
)

// Sketch is the common interface: a summary of a frequency vector
// x ∈ R^n supporting point updates and point queries.
type Sketch interface {
	// Update applies x[i] += delta. i must be in [0, Dim()).
	Update(i int, delta float64)
	// Query returns an estimate of x[i].
	Query(i int) float64
	// Dim returns n, the dimension of the summarized vector.
	Dim() int
	// Words returns the sketch size in 64-bit words, the x-axis of
	// every size-versus-accuracy plot in §5.
	Words() int
}

// BatchUpdater is the optional capability of sketches with a native
// batched ingestion path. UpdateBatch applies x[idx[j]] += deltas[j]
// for every j and leaves exactly the state of the equivalent
// element-wise Update loop; implementations validate the whole batch
// (slice lengths and index ranges) before touching any counter, so a
// panic cannot leave the sketch partially updated.
//
// Every algorithm in this repository implements it with a row-major
// traversal: each row's hash is evaluated over the whole batch (one
// coefficient load per row, see hashing.Pairwise.HashMany) and the
// row's counters — a few KB — stay cache-hot while absorbing every
// element, instead of the whole d·s-word table being walked per
// element.
type BatchUpdater interface {
	UpdateBatch(idx []int, deltas []float64)
}

// UpdateBatch feeds a batch through s's native batched path when it
// has one, or an element-wise loop otherwise.
//
//sketch:hotpath
func UpdateBatch(s Sketch, idx []int, deltas []float64) {
	if b, ok := s.(BatchUpdater); ok {
		b.UpdateBatch(idx, deltas)
		return
	}
	if len(idx) != len(deltas) {
		panic(fmt.Sprintf("sketch: batch index count %d != delta count %d", len(idx), len(deltas)))
	}
	for j, i := range idx {
		s.Update(i, deltas[j])
	}
}

// BatchQuerier is the read-side twin of BatchUpdater: QueryBatch
// writes an estimate of x[idx[j]] into out[j] for every j, and the
// results are bit-identical to the element-wise Query loop.
//
// Every algorithm in this repository implements it with the same
// row-major traversal as UpdateBatch: each row's hash (and sign)
// coefficients load once per batch and the row's counters stay
// cache-hot while every element's bucket is gathered; the per-element
// combination step (min / median / bias correction) then runs over the
// gathered values. The whole batch is validated before out is written.
//
// Unlike the single-element Query methods — which reuse per-sketch
// scratch buffers — QueryBatch implementations allocate their scratch
// per call, so concurrent QueryBatch calls on a sketch that is no
// longer being written (e.g. a Sharded snapshot replica) are safe.
type BatchQuerier interface {
	QueryBatch(idx []int, out []float64)
}

// QueryBatch answers a batch of point queries through s's native
// batched path when it has one, or an element-wise Query loop
// otherwise. Both paths produce bit-identical results.
//
//sketch:hotpath
func QueryBatch(s Sketch, idx []int, out []float64) {
	if len(idx) != len(out) {
		panic(fmt.Sprintf("sketch: batch index count %d != output count %d", len(idx), len(out)))
	}
	if b, ok := s.(BatchQuerier); ok {
		b.QueryBatch(idx, out)
		return
	}
	for j, i := range idx {
		out[j] = s.Query(i)
	}
}

// Linear is a sketch with the linearity property Φ(x+y) = Φx + Φy,
// hence mergeable across distributed sites.
type Linear interface {
	Sketch
	// MergeFrom adds other's sketch state into the receiver. It fails
	// unless other has the same concrete type, shape, and hash seeds.
	MergeFrom(other Linear) error
}

// ErrIncompatible is returned by MergeFrom when the two sketches do
// not share type, shape, or hash functions.
var ErrIncompatible = errors.New("sketch: incompatible sketches")

// Recover reconstructs the full estimate vector x̂ by querying every
// coordinate — the recovery phase R(Φx) of §1.
func Recover(s Sketch) []float64 {
	out := make([]float64, s.Dim())
	for i := range out {
		out[i] = s.Query(i)
	}
	return out
}

// SketchVector feeds a dense frequency vector into s, one update per
// non-zero coordinate. A length mismatch returns an error before any
// update is applied; the public repro.SketchVector delegates here, so
// the two paths share one behavior.
func SketchVector(s Sketch, x []float64) error {
	if len(x) != s.Dim() {
		return fmt.Errorf("sketch: vector length %d != sketch dim %d", len(x), s.Dim())
	}
	for i, v := range x {
		if v != 0 {
			s.Update(i, v)
		}
	}
	return nil
}

// Config carries the shared shape parameters of every sketch in this
// package: the vector dimension n, the row width s (number of buckets
// per hash function; s = c_s·k in the paper), and the depth d (number
// of independent rows; Θ(log n) in the theorems, 9–10 in §5.1).
type Config struct {
	N     int // dimension of the input vector
	Rows  int // s, buckets per row
	Depth int // d, number of rows
}

// Validate checks the configuration is usable.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("sketch: N must be positive, got %d", c.N)
	}
	if c.Rows <= 0 {
		return fmt.Errorf("sketch: Rows must be positive, got %d", c.Rows)
	}
	if c.Depth <= 0 {
		return fmt.Errorf("sketch: Depth must be positive, got %d", c.Depth)
	}
	return nil
}

// Median returns the paper's Table 1 median of buf (midpoint average
// for even length), reordering buf in place. Exported for the recovery
// algorithms layered on top of this package, so their per-element
// combine step shares the sorting networks of the sketches' own median
// queries.
//
//sketch:hotpath
func Median(buf []float64) float64 { return medianOf(buf) }

// medianOf returns the median of buf, reordering buf in place. It uses
// the paper's Table 1 definition (midpoint average for even length).
//
//sketch:hotpath
func medianOf(buf []float64) float64 {
	n := len(buf)
	if n == 0 {
		return 0
	}
	// Branchless sorting network for the depths that occur in
	// practice (see median.go); insertion sort covers the rest — depth
	// d is small, so either beats sort.Slice on the query hot path and
	// allocates nothing.
	if !sortSmall(buf) {
		for i := 1; i < n; i++ {
			v := buf[i]
			j := i - 1
			for j >= 0 && buf[j] > v {
				buf[j+1] = buf[j]
				j--
			}
			buf[j+1] = v
		}
	}
	if n%2 == 1 {
		return buf[n/2]
	}
	return (buf[n/2-1] + buf[n/2]) / 2
}
