package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/hashing"
)

// table is the d×s counter matrix shared by every hashing-based sketch
// in this package, together with its row hash functions. It is the
// in-memory realization of the stacked CM/CS-matrices of Definitions 1
// and 2: row t holds the sketching vector Π(h_t)x (or Ψ(h_t,r_t)x).
// The counters are dense float64 rows that every algorithm reads and
// writes in place.
type table struct {
	cfg   Config
	hash  hashing.Family
	cells [][]float64 // Depth rows of Rows counters

	scratch []int // per-row bucket indexes, reused across UpdateBatch calls
}

// drawHash draws the row hash family of a cfg-shaped table from r.
// Invalid configurations return ErrConfig (wrapped).
func drawHash(cfg Config, r *rand.Rand) (hashing.Family, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	h, err := hashing.NewFamily(r, cfg.Depth, cfg.Rows)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return h, nil
}

// newTable builds a zeroed table on a hash family drawn from r.
func newTable(cfg Config, r *rand.Rand) (table, error) {
	h, err := drawHash(cfg, r)
	if err != nil {
		return table{}, err
	}
	return newTableOn(cfg, h)
}

// newTableOn builds zeroed counters on a hash family the caller owns;
// the table only reads it, so replicas of one configuration can share
// one family. Invalid configurations, and a family whose length is not
// cfg.Depth or whose range is not cfg.Rows, return ErrConfig (wrapped).
func newTableOn(cfg Config, hash hashing.Family) (table, error) {
	if err := cfg.Validate(); err != nil {
		return table{}, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if len(hash) != cfg.Depth || slices.ContainsFunc(hash, func(h hashing.Pairwise) bool { return h.Range != uint64(cfg.Rows) }) {
		return table{}, fmt.Errorf("%w: hash family does not fit %d rows of %d buckets", ErrConfig, cfg.Depth, cfg.Rows)
	}
	cells := make([][]float64, cfg.Depth)
	for t := range cells {
		cells[t] = make([]float64, cfg.Rows)
	}
	return table{cfg: cfg, hash: hash, cells: cells}, nil
}

func (tb *table) dim() int { return tb.cfg.N }

// words reports the storage cost of the counters in 64-bit words.
func (tb *table) words() int { return tb.cfg.Depth * tb.cfg.Rows }

// addPoint applies one linear add of delta at every row's bucket for
// coordinate i — the element-wise write primitive of the linear
// sketches.
//
//sketch:hotpath
func (tb *table) addPoint(i int, delta float64) {
	cells := tb.cells
	u := uint64(i)
	for t, h := range tb.hash {
		cells[t][h.Hash(u)] += delta
	}
}

// addBatch applies the batched linear add row-major: each row's hash
// kernel runs over the whole batch (one coefficient load per row),
// then the row's counters absorb every element. Equivalent to the
// element-wise addPoint loop.
//
//sketch:hotpath
func (tb *table) addBatch(idx []int, deltas []float64) {
	for t, row := range tb.cells {
		for j, b := range tb.hashRow(t, idx) {
			row[b] += deltas[j]
		}
	}
}

// gatherRowValues hashes row t over tile into sc.Ints and writes the
// row's bucket values into o — the shared gather behind every
// BatchRecovery.GatherRow.
//
//sketch:hotpath
func (tb *table) gatherRowValues(t int, tile []int, o []float64, sc *QScratch) {
	hb := sc.Ints[:len(tile)]
	tb.hash.HashMany(t, tile, hb)
	row := tb.cells[t]
	for j, b := range hb {
		o[j] = row[b]
	}
}

// minPoint returns the minimum bucket value over rows for coordinate i
// — the element-wise Count-Min-family query.
//
//sketch:hotpath
func (tb *table) minPoint(i int) float64 {
	u := uint64(i)
	cells := tb.cells
	hs := tb.hash
	m := cells[0][hs[0].Hash(u)]
	for t := 1; t < len(cells); t++ {
		m = min(m, cells[t][hs[t].Hash(u)])
	}
	return m
}

// gatherPoint writes every row's bucket value for coordinate i into
// buf[t] — the element-wise gather of the median-family queries.
//
//sketch:hotpath
func (tb *table) gatherPoint(i int, buf []float64) {
	u := uint64(i)
	cells := tb.cells
	for t, h := range tb.hash {
		buf[t] = cells[t][h.Hash(u)]
	}
}

// sameShape reports whether two tables share shape and hash seeds, the
// precondition for a meaningful merge.
func (tb *table) sameShape(o *table) bool {
	return tb.cfg == o.cfg && tb.hash.Equal(o.hash)
}

// mergeFrom adds o's counters into tb cell by cell. Caller must have
// checked sameShape.
func (tb *table) mergeFrom(o *table) {
	for t, row := range tb.cells {
		orow := o.cells[t]
		for b := range row {
			row[b] += orow[b]
		}
	}
}

// marshalCells serializes the counter matrix in the wire cell layout:
// 8 bytes per cell, little endian, row-major.
func (tb *table) marshalCells() []byte {
	buf := make([]byte, 8*tb.words())
	off := 0
	for _, row := range tb.cells {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf
}

// unmarshalCells overwrites the counter matrix from marshalCells
// output, rejecting a payload of the wrong length before any counter
// moves.
func (tb *table) unmarshalCells(buf []byte) error {
	if want := 8 * tb.words(); len(buf) != want {
		return fmt.Errorf("sketch: cell payload %d bytes, want %d", len(buf), want)
	}
	off := 0
	for _, row := range tb.cells {
		for b := range row {
			row[b] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return nil
}

// checkIndex panics on out-of-range coordinate indexes; sketches are
// internal infrastructure and an out-of-range index is a programmer
// error, not an input error.
func (tb *table) checkIndex(i int) {
	if i < 0 || i >= tb.cfg.N {
		panic(fmt.Sprintf("sketch: index %d out of range [0,%d)", i, tb.cfg.N))
	}
}

// checkBatch validates a whole batch before any counter is touched, so
// a panic cannot leave the table partially updated.
func (tb *table) checkBatch(idx []int, deltas []float64) {
	if len(idx) != len(deltas) {
		panic(fmt.Sprintf("sketch: batch index count %d != delta count %d", len(idx), len(deltas)))
	}
	for _, i := range idx {
		tb.checkIndex(i)
	}
}

// checkQueryBatch validates a whole query batch — matching slice
// lengths and in-range indexes — before any output is written.
func (tb *table) checkQueryBatch(idx []int, out []float64) {
	if len(idx) != len(out) {
		panic(fmt.Sprintf("sketch: batch index count %d != output count %d", len(idx), len(out)))
	}
	for _, i := range idx {
		tb.checkIndex(i)
	}
}

// hashPoint writes h_t(u) for every row t into out — the element-wise
// companion of hashRow for the point paths that need every row's
// bucket of one coordinate.
//
//sketch:hotpath
func (tb *table) hashPoint(u uint64, out []int) {
	for t, h := range tb.hash {
		out[t] = h.Hash(u)
	}
}

// hashRow evaluates row t's hash over the whole batch into the shared
// scratch buffer and returns it. Valid until the next hashRow call.
func (tb *table) hashRow(t int, idx []int) []int {
	if cap(tb.scratch) < len(idx) {
		tb.scratch = make([]int, len(idx))
	}
	out := tb.scratch[:len(idx)]
	tb.hash.HashMany(t, idx, out)
	return out
}

// queryChunk is the internal tile width of the median-family
// QueryBatch implementations: the row-major gather fills a
// depth×queryChunk tile, then the per-element median reads it back
// column-major. At 256 elements the tile is a few KB — L1-resident for
// the strided read-back — while still amortizing each row's hash
// coefficients over hundreds of elements. Purely an iteration-order
// choice: results are bit-identical at any tile width.
const queryChunk = 256

// TileWidth returns the scratch length a QueryBatchMedian gather
// needs for a batch of n elements: the tile width, never more than
// the batch itself (a batch of one borrows one slot, not a full
// tile).
func TileWidth(n int) int {
	if n > queryChunk {
		return queryChunk
	}
	return n
}

// QScratch bundles the scratch buffers of one batched-query call,
// recycled through a sync.Pool so the serving paths run
// allocation-free in steady state. Ints and F1 are tile-width buffers
// for BatchRecovery.GatherRow implementations (bucket indexes and
// sign/weight coefficients); Bias carries the caller's bias estimate
// β̂ into GatherRow and Combine so the bias-aware recoveries need no
// closure capture. The buffers are valid only between GetQScratch and
// PutQScratch; they must never be retained past the call.
type QScratch struct {
	Ints []int
	F1   []float64
	Bias float64

	vb  []float64 // depth×tile row-major gather buffer
	buf []float64 // depth-length per-element column
}

// grow resizes the buffers for a depth×width query; growth stays out
// of the tagged hot paths, which only slice the grown buffers.
func (sc *QScratch) grow(depth, width int) {
	if cap(sc.Ints) < width {
		sc.Ints = make([]int, width)
	}
	if cap(sc.F1) < width {
		sc.F1 = make([]float64, width)
	}
	if cap(sc.vb) < depth*width {
		sc.vb = make([]float64, depth*width)
	}
	if cap(sc.buf) < depth {
		sc.buf = make([]float64, depth)
	}
}

var qscratchPool = sync.Pool{New: func() any { return new(QScratch) }}

// GetQScratch returns a pooled scratch with capacity for a
// depth×width batched query. Pair with PutQScratch.
func GetQScratch(depth, width int) *QScratch {
	sc := qscratchPool.Get().(*QScratch)
	sc.grow(depth, width)
	return sc
}

// PutQScratch returns a scratch to the pool. The caller must not
// touch sc or any slice of its buffers afterwards.
func PutQScratch(sc *QScratch) {
	sc.Bias = 0
	qscratchPool.Put(sc)
}

// BatchRecovery is the per-algorithm half of QueryBatchMedian: the
// row-major gather of one row's per-element contributions and the
// per-element collapse of the gathered column. Implementations are
// methods on the sketch types themselves (not adapter closures), so
// the interface value is a plain pointer and the batched paths stay
// allocation-free.
type BatchRecovery interface {
	// GatherRow writes row t's contribution for every element of tile
	// into o (len(o) == len(tile)), using sc.Ints/sc.F1 as tile-width
	// scratch and reading the bias estimate from sc.Bias.
	GatherRow(t int, tile []int, o []float64, sc *QScratch)
	// Combine collapses one element's depth values (row order) into
	// the estimate; vals may be reordered in place.
	Combine(vals []float64, sc *QScratch) float64
}

// QueryBatchMedian is the shared skeleton of every median-family
// QueryBatch (Count-Median, Count-Sketch, Deng–Rafiei, and the
// bias-aware recoveries in internal/core): it walks the batch in
// L1-resident tiles, calls r.GatherRow to write row t's per-element
// contribution for the whole tile (one hash/sign-coefficient load per
// row per tile), then reads each element's depth values back in row
// order and collapses them with r.Combine. Results are bit-identical
// to the element-wise loop that fills a depth buffer per element,
// because each element's values reach Combine in the same row order.
// Scratch comes from the package pool and every call borrows its own,
// so concurrent calls on a quiescent sketch are safe and the steady
// state allocates nothing.
//
//sketch:hotpath
func QueryBatchMedian(depth int, idx []int, out []float64, bias float64, r BatchRecovery) {
	cw := TileWidth(len(idx))
	sc := GetQScratch(depth, cw)
	defer PutQScratch(sc)
	sc.Bias = bias
	vb := sc.vb[:depth*cw]
	buf := sc.buf[:depth]
	for base := 0; base < len(idx); base += queryChunk {
		m := len(idx) - base
		if m > queryChunk {
			m = queryChunk
		}
		tile := idx[base : base+m]
		for t := 0; t < depth; t++ {
			r.GatherRow(t, tile, vb[t*m:(t+1)*m], sc)
		}
		for j := 0; j < m; j++ {
			for t := 0; t < depth; t++ {
				buf[t] = vb[t*m+j]
			}
			out[base+j] = r.Combine(buf, sc)
		}
	}
}

// minRows writes, for every batch element, the minimum bucket value
// over all rows into out — the shared row-major gather behind the
// Count-Min-family QueryBatch implementations. Per element the
// comparison sequence is exactly the element-wise Query's (row 0
// seeds, rows 1..d-1 compare with <), so the result is bit-identical.
// Scratch is borrowed from the package pool, not taken from
// tb.scratch, so concurrent calls on a table that is no longer being
// written are safe.
//
//sketch:hotpath
func (tb *table) minRows(idx []int, out []float64) {
	sc := GetQScratch(0, len(idx))
	defer PutQScratch(sc)
	hb := sc.Ints[:len(idx)]
	for t, row := range tb.cells {
		tb.hash.HashMany(t, idx, hb)
		if t == 0 {
			for j, b := range hb {
				out[j] = row[b]
			}
			continue
		}
		for j, b := range hb {
			// builtin min is branchless; a compare-and-assign
			// mispredicts on random counters.
			out[j] = min(out[j], row[b])
		}
	}
}
