package sketch

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/hashing"
)

// table is the d×s counter matrix shared by every hashing-based sketch
// in this package, together with its row hash functions. It is the
// in-memory realization of the stacked CM/CS-matrices of Definitions 1
// and 2: row t holds the sketching vector Π(h_t)x (or Ψ(h_t,r_t)x).
// Where the counters live is the plane's concern (see plane.go): the
// table binds one Plane to the pairwise hash family and exposes the
// read/write primitives the algorithms use.
type table struct {
	cfg   Config
	hash  hashing.Family
	plane Plane

	// wrows is the plane's direct-write row view — non-nil only for
	// the dense backend. The update hot paths branch on it once and
	// mutate in place, exactly as the pre-plane code did; the fallback
	// routes through the plane's Add primitive.
	wrows [][]float64
	// rview is the current read view. For dense and mmap backends
	// (fixed == true) it is set once at construction and never goes
	// stale; the compressed backend re-materializes through the plane
	// on every read batch (cached inside the plane until the next
	// write).
	rview [][]float64
	fixed bool

	scratch []int // per-row bucket indexes, reused across UpdateBatch calls
}

// newTable builds a table on the requested backend. Invalid
// configurations return ErrConfig (wrapped); unusable backend state
// (mmap payloads) returns ErrBackendState.
func newTable(cfg Config, r *rand.Rand, be Backend) (table, error) {
	if err := cfg.Validate(); err != nil {
		return table{}, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	// The hash family draws from r first under every backend, so two
	// sketches built from the same seed share hashes regardless of the
	// plane behind them — dense, compressed, and mmap replicas of one
	// configuration answer against the same bucket geometry.
	h, err := hashing.NewFamily(r, cfg.Depth, cfg.Rows)
	if err != nil {
		return table{}, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	var p Plane
	switch be.Kind {
	case BackendDense:
		p = newDensePlane(cfg.Depth, cfg.Rows)
	case BackendCompressed:
		p = newCBPlane(cfg.Depth, cfg.Rows, r)
	case BackendMmap:
		mp, err := newMmapPlane(cfg.Depth, cfg.Rows, be.Mapped)
		if err != nil {
			return table{}, err
		}
		p = mp
	default:
		return table{}, fmt.Errorf("%w: unknown backend %v", ErrConfig, be.Kind)
	}
	tb := table{cfg: cfg, hash: h, plane: p, wrows: p.WritableRows()}
	if be.Kind != BackendCompressed {
		v, err := p.View()
		if err != nil {
			return table{}, err
		}
		tb.rview, tb.fixed = v, true
	}
	return tb, nil
}

func (tb *table) dim() int { return tb.cfg.N }

// words reports the storage cost of the counter plane in 64-bit words,
// rounding bit-packed backends up — dense and mmap planes report
// exactly Depth·Rows, the compressed plane reports the braid's actual
// footprint (its honest position on size-versus-accuracy plots).
func (tb *table) words() int { return (tb.plane.Bits() + 63) / 64 }

// backend reports the plane's kind.
func (tb *table) backend() BackendKind { return tb.plane.Kind() }

// rows returns the current read view of the counter matrix. Dense and
// mmap planes resolve to a cached field load; the compressed plane
// decodes on demand (panicking with an ErrPlaneDecode-wrapped error
// past the braid threshold — see planeRows).
//
//sketch:hotpath
func (tb *table) rows() [][]float64 {
	if tb.fixed {
		return tb.rview
	}
	return tb.planeRows()
}

// planeRows materializes the plane's view. Decode failure past the
// compressed plane's threshold panics: the read hot paths (Query,
// QueryBatch) have no error channel by design — the overload is
// detectable up front via Readable, and the panic value wraps
// ErrPlaneDecode for recover-based boundaries.
func (tb *table) planeRows() [][]float64 {
	v, err := tb.plane.View()
	if err != nil {
		panic(err)
	}
	return v
}

// readable reports whether the plane can currently serve reads —
// false only for a compressed plane loaded beyond its decoding
// threshold, with the ErrPlaneDecode-wrapped cause.
func (tb *table) readable() error {
	_, err := tb.plane.View()
	return err
}

// writable returns the direct-write rows, panicking on read-only
// planes. Only the dense backend is in-place writable; the algorithms
// that need read-modify-write semantics (conservative update, signed
// updates) reject the compressed backend at construction, so reaching
// this with nil wrows means an mmap plane absorbed an update call.
//
//sketch:hotpath
func (tb *table) writable() [][]float64 {
	if tb.wrows == nil {
		panic(ErrReadOnlyPlane)
	}
	return tb.wrows
}

// addSlow routes one linear add through the plane's Add primitive —
// the non-dense path of the linear algorithms' Update. Constraint
// violations (read-only plane, non-integer delta on the compressed
// plane) panic with their typed error, mirroring the panic-on-misuse
// contract of the in-range checks.
func (tb *table) addSlow(i int, delta float64) {
	if err := tb.plane.ValidateAdd(delta); err != nil {
		panic(err)
	}
	u := uint64(i)
	for t, h := range tb.hash {
		if err := tb.plane.Add(t, h.Hash(u), delta); err != nil {
			panic(err)
		}
	}
}

// addBatchSlow is addSlow over a batch: the whole batch is validated
// against the plane's add constraint before any counter moves, so a
// panic cannot leave the plane partially updated.
func (tb *table) addBatchSlow(idx []int, deltas []float64) {
	for _, d := range deltas {
		if err := tb.plane.ValidateAdd(d); err != nil {
			panic(err)
		}
	}
	for t := 0; t < tb.cfg.Depth; t++ {
		for j, b := range tb.hashRow(t, idx) {
			if err := tb.plane.Add(t, b, deltas[j]); err != nil {
				panic(err)
			}
		}
	}
}

// addPoint applies one linear add of delta at every row's bucket for
// coordinate i — the element-wise write primitive of the linear
// sketches. Dense rows are written in place; other planes go through
// their Add primitive.
//
//sketch:hotpath
func (tb *table) addPoint(i int, delta float64) {
	w := tb.wrows
	if w == nil {
		tb.addSlow(i, delta)
		return
	}
	u := uint64(i)
	for t, h := range tb.hash {
		w[t][h.Hash(u)] += delta
	}
}

// addBatch applies the batched linear add row-major: each row's hash
// kernel runs over the whole batch (one coefficient load per row),
// then the row's counters absorb every element. Equivalent to the
// element-wise addPoint loop.
//
//sketch:hotpath
func (tb *table) addBatch(idx []int, deltas []float64) {
	w := tb.wrows
	if w == nil {
		tb.addBatchSlow(idx, deltas)
		return
	}
	for t, row := range w {
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
	row := tb.rows()[t]
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
	cells := tb.rows()
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
	cells := tb.rows()
	for t, h := range tb.hash {
		buf[t] = cells[t][h.Hash(u)]
	}
}

// sameShape reports whether two tables share shape and hash seeds, the
// precondition for a meaningful merge. Backends may differ: shape is
// about the sketched linear map, not the storage behind it.
func (tb *table) sameShape(o *table) bool {
	return tb.cfg == o.cfg && tb.hash.Equal(o.hash)
}

// mergeFrom adds o's counters into tb through the planes. Caller must
// have checked sameShape. Dense←dense is the flat cell loop it always
// was; compressed←compressed merges braid state exactly; read-only
// receivers return ErrReadOnlyPlane.
func (tb *table) mergeFrom(o *table) error {
	return tb.plane.MergeFrom(o.plane)
}

// marshalCells serializes the counter matrix to a byte slice (8 bytes
// per cell, little endian) — the wire cell layout every backend emits,
// so checkpoints restore across backends. The compressed plane must
// decode to serialize and fails past its threshold.
func (tb *table) marshalCells() ([]byte, error) {
	return tb.plane.MarshalCells()
}

// unmarshalCells overwrites the counter matrix from marshalCells
// output. Read-only planes reject it; the compressed plane re-inserts
// the cell totals (exact, but only for non-negative integer cells).
func (tb *table) unmarshalCells(buf []byte) error {
	return tb.plane.UnmarshalCells(buf)
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
	for t, row := range tb.rows() {
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
