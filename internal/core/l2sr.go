package core

import (
	"fmt"
	"math/rand"

	"repro/internal/sketch"
)

// L2Config parameterizes the ℓ2-S/R scheme (Algorithms 3–4).
type L2Config struct {
	N int // dimension of the input vector
	K int // sparsity/accuracy trade-off parameter of Theorem 4

	// Cs is the row-width constant c_s: rows have s = Cs·K buckets.
	// The paper requires c_s >= 4; defaults to 4.
	Cs int

	// Depth is d, the number of CS rows (Θ(log n) in Theorem 4; the
	// paper's experiments use 9). Defaults to 9.
	Depth int

	// Estimator selects the bias estimator; EstimatorDefault and
	// EstimatorMedianBucket give the paper's ℓ2-S/R, EstimatorMean
	// gives the ℓ2-mean heuristic of §5.4, and
	// EstimatorSampledMedian is available for the ablation study.
	Estimator EstimatorKind

	// UseBiasHeap selects the streaming implementation of the
	// median-bucket estimator (Algorithms 5–6, O(log s) maintenance
	// per update, O(1) per bias query) instead of the sort-at-query
	// recovery of Algorithm 4. A merge or a restore rebuilds the heap
	// once in O(s) instead of updating it bucket by bucket. Both
	// estimators find the same middle buckets; on exact sums they
	// produce identical estimates (TestBiasHeapMatchesSort).
	UseBiasHeap bool

	// SampleCount is used only with EstimatorSampledMedian.
	SampleCount int
}

func (c L2Config) withDefaults() L2Config {
	if c.Cs == 0 {
		c.Cs = 4
	}
	if c.Depth == 0 {
		c.Depth = 9
	}
	if c.Estimator == EstimatorDefault {
		c.Estimator = EstimatorMedianBucket
	}
	if c.SampleCount == 0 {
		c.SampleCount = defaultSampleCount(c.N)
	}
	return c
}

// Validate checks the configuration.
func (c L2Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: N must be positive, got %d", c.N)
	}
	if c.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", c.K)
	}
	if c.Cs < 4 {
		return fmt.Errorf("core: Cs must be at least 4 (paper requirement), got %d", c.Cs)
	}
	if c.Depth <= 0 {
		return fmt.Errorf("core: Depth must be positive, got %d", c.Depth)
	}
	switch c.Estimator {
	case EstimatorMedianBucket, EstimatorMean, EstimatorSampledMedian:
		return nil
	default:
		return fmt.Errorf("core: unsupported ℓ2 estimator %v", c.Estimator)
	}
}

// L2SR is the bias-aware sketch with ℓ∞/ℓ2 guarantee (Theorem 4):
//
//	Pr[ ‖x̂−x‖∞ ≤ C1/√k · min_β Err_2^k(x−β) ] ≥ 1 − C2/n.
//
// The sketch (Algorithm 3) is a CM-matrix row w = Π(g)x used only for
// bias estimation, stacked on d CS-matrix rows (a Count-Sketch of x).
// Recovery (Algorithm 4) sorts the CM buckets by average coordinate
// value w_i/π_i, averages the middle 2k buckets to get β̂ — outliers
// contaminate at most k of them, which Lemma 6 shows is harmless —
// then de-biases the CS rows by β̂·ψ and runs the Count-Sketch
// reconstruction, adding β̂ back.
//
// With UseBiasHeap the bucket ordering is maintained incrementally by
// the Bias-Heap (Algorithms 5–6), making every point query O(d) after
// O(log s) per update — the paper's real-time streaming mode. MergeFrom
// and UnmarshalState change every bucket at once, so they rebuild the
// heap in O(s) instead.
type L2SR struct {
	b   *L2Basis
	cs  *sketch.CountSketch
	est Estimator
	buf []float64 // per-row values, reused across Query calls
}

// NewL2SR creates an ℓ2-S/R sketch, drawing all randomness from r. It
// is the one replica of a basis of its own; replicas built by name
// share one basis (see L2Basis).
func NewL2SR(cfg L2Config, r *rand.Rand) *L2SR {
	return NewL2Basis(cfg, r).New()
}

// Update applies x[i] += delta to the CS rows and the bias row
// (Algorithm 6 lines 4–6).
//
//sketch:hotpath
func (l *L2SR) Update(i int, delta float64) {
	l.cs.Update(i, delta)
	l.est.Observe(i, delta)
}

// UpdateBatch applies the batch to the CS rows row-major (one hash-
// coefficient load per row, cache-hot rows) and replays it element-
// ordered into the bias estimator, leaving exactly the state of the
// element-wise Update loop.
//
//sketch:hotpath
func (l *L2SR) UpdateBatch(idx []int, deltas []float64) {
	l.cs.UpdateBatch(idx, deltas)
	for j, i := range idx {
		l.est.Observe(i, deltas[j])
	}
}

// Bias returns the current bias estimate β̂ (Algorithm 4 line 2 /
// Algorithm 5 line 19).
func (l *L2SR) Bias() float64 { return l.est.Bias() }

// Query estimates x[i] by de-biased Count-Sketch recovery
// (Algorithm 4 lines 3–6 / Algorithm 6 lines 7–10):
//
//	x̂_i = median_t( r_t(i)·(y_t[h_t(i)] − β̂·ψ_t[h_t(i)]) ) + β̂.
//
//sketch:hotpath
func (l *L2SR) Query(i int) float64 {
	l.cs.CheckIndex(i)
	beta := l.est.Bias()
	psi := l.b.columnSums()
	u := uint64(i)
	for t, h := range l.b.hash {
		b := h.Hash(u)
		l.buf[t] = l.b.signs.SignFloat(t, u) * (l.cs.Row(t)[b] - beta*psi[t][b])
	}
	return median(l.buf) + beta
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j
// — de-biased Count-Sketch recovery, row-major: each CS row's bucket
// hash, sign function, counters, and signed column sums ψ load once
// for the whole batch, then the median and the β̂ add-back run per
// element over the gathered, cache-hot columns. β̂ is read once up
// front; queries never change estimator state, so this matches the
// per-query Bias() calls of the element-wise loop and results are
// bit-identical to it. The whole batch is validated before out is
// written, and scratch is borrowed from the shared pool per call, so
// concurrent QueryBatch calls on a quiescent sketch (e.g. a Sharded
// snapshot replica) are safe.
//
//sketch:hotpath
func (l *L2SR) QueryBatch(idx []int, out []float64) {
	l.cs.CheckIndexBatch(idx, out)
	sketch.QueryBatchMedian(l.b.cfg.Depth, idx, out, l.est.Bias(), l)
}

// GatherRow implements sketch.BatchRecovery: row t's de-biased,
// sign-corrected bucket values r_t(i)·(y_t[h_t(i)] − β̂·ψ_t[h_t(i)])
// for the tile, with β̂ read from sc.Bias. Used by
// sketch.QueryBatchMedian, not meant for direct callers.
//
//sketch:hotpath
func (l *L2SR) GatherRow(t int, tile []int, o []float64, sc *sketch.QScratch) {
	hb := sc.Ints[:len(tile)]
	sg := sc.F1[:len(tile)]
	l.b.hash.HashMany(t, tile, hb)
	l.b.signs.SignFloatMany(t, tile, sg)
	row := l.cs.Row(t)
	psi := l.b.columnSums()[t]
	beta := sc.Bias
	for j, b := range hb {
		o[j] = sg[j] * (row[b] - beta*psi[b])
	}
}

// Combine implements sketch.BatchRecovery: the row median plus the β̂
// add-back of Algorithm 4 line 6.
//
//sketch:hotpath
func (l *L2SR) Combine(vals []float64, sc *sketch.QScratch) float64 {
	return median(vals) + sc.Bias
}

// GatherMagRange implements sketch.ScanRecovery: |y_t[h_t(i)] −
// β̂·ψ_t[h_t(i)]| for the keys i = lo, lo+1, …, with β̂ read from
// sc.Bias. Used by sketch.ScanMedian, not meant for direct callers.
//
//sketch:hotpath
func (l *L2SR) GatherMagRange(t, lo int, o []float64, sc *sketch.QScratch) {
	l.b.gatherMagRange(t, lo, l.cs.Row(t), o, sc)
}

// ScanRange writes into idx and out, in increasing key order, the keys
// of [lo, hi) whose deviation |x̂_i − β̂| may exceed tau, with their
// QueryBatch estimates, and returns how many. Every key it leaves out
// deviates by at most tau; a tau that is not positive and finite
// leaves none out. idx and out need room for hi−lo keys, and it panics
// unless 0 <= lo <= hi <= Dim(). β̂ is read once, as in QueryBatch.
//
//sketch:hotpath
func (l *L2SR) ScanRange(lo, hi int, tau float64, idx []int, out []float64) int {
	l.b.checkRange(lo, hi, idx, out)
	return sketch.ScanMedian(l.b.cfg.Depth, lo, hi, tau, l.est.Bias(), l, idx, out)
}

// Dim returns n.
func (l *L2SR) Dim() int { return l.b.cfg.N }

// Words returns the sketch size in 64-bit words: d·s CS counters plus
// the s-bucket bias row (ψ and π are hash-derived common knowledge).
func (l *L2SR) Words() int { return l.cs.Words() + l.est.Words() }

// Config returns the (defaulted) configuration in use.
func (l *L2SR) Config() L2Config { return l.b.cfg }

// MergeFrom adds another L2SR built with the same configuration and
// random seed (the distributed model of §1). Both the CS rows and the
// bias row are linear.
func (l *L2SR) MergeFrom(other *L2SR) error {
	if other.b.cfg != l.b.cfg {
		return sketch.ErrIncompatible
	}
	if err := l.cs.MergeFrom(other.cs); err != nil {
		return err
	}
	return l.est.Merge(other.est)
}
