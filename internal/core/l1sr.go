package core

import (
	"fmt"
	"math/rand"

	"repro/internal/sketch"
)

// L1Config parameterizes the ℓ1-S/R scheme (Algorithms 1–2).
type L1Config struct {
	N int // dimension of the input vector
	K int // sparsity/accuracy trade-off parameter of Theorem 3

	// Cs is the row-width constant c_s: each CM row has s = Cs·K
	// buckets. The paper requires c_s >= 4; defaults to 4.
	Cs int

	// Depth is d, the number of CM rows (Θ(log n) in Theorem 3; the
	// paper's experiments use 9). Defaults to 9.
	Depth int

	// SampleCount is the number of rows of the sampling matrix Υ.
	// Algorithm 1 uses 20·log n; the paper's implementation uses s
	// extra words instead for a more stable estimate (§5.1). Defaults
	// to 20·⌈log₂ n⌉; set explicitly to mirror the paper's plots.
	SampleCount int

	// Estimator selects the bias estimator; EstimatorDefault and
	// EstimatorSampledMedian give the paper's ℓ1-S/R, EstimatorMean
	// gives the ℓ1-mean heuristic of §5.4.
	Estimator EstimatorKind
}

func (c L1Config) withDefaults() L1Config {
	if c.Cs == 0 {
		c.Cs = 4
	}
	if c.Depth == 0 {
		c.Depth = 9
	}
	if c.SampleCount == 0 {
		c.SampleCount = defaultSampleCount(c.N)
	}
	if c.Estimator == EstimatorDefault {
		c.Estimator = EstimatorSampledMedian
	}
	return c
}

// Validate checks the configuration.
func (c L1Config) Validate() error {
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
	if c.SampleCount <= 0 {
		return fmt.Errorf("core: SampleCount must be positive, got %d", c.SampleCount)
	}
	switch c.Estimator {
	case EstimatorSampledMedian, EstimatorMean:
		return nil
	default:
		return fmt.Errorf("core: ℓ1-S/R supports sampled-median or mean estimators, got %v", c.Estimator)
	}
}

// L1SR is the bias-aware sketch with ℓ∞/ℓ1 guarantee (Theorem 3):
//
//	Pr[ ‖x̂−x‖∞ ≤ C1/k · min_β Err_1^k(x−β) ] ≥ 1 − C2/n.
//
// It combines d CM-matrix rows (a Count-Median sketch of x) with a
// sampling matrix Υ whose sampled values feed a running median — the
// bias estimate β̂. Recovery subtracts β̂·π from each row, runs the
// Count-Median reconstruction, and adds β̂ back (Algorithm 2).
//
// The whole sketch is linear, so L1SR supports MergeFrom and works in
// the distributed model unchanged. Updates keep the sampled values in
// an order-statistic tree, so the structure is also the streaming
// implementation of §4.4: point queries are answered in O(d + log t)
// without any post-processing pass.
type L1SR struct {
	b   *L1Basis
	cm  *sketch.CountMedian
	est Estimator
	buf []float64 // per-row values, reused across Query calls
}

// NewL1SR creates an ℓ1-S/R sketch, drawing all randomness from r. It
// is the one replica of a basis of its own; replicas built by name
// share one basis (see L1Basis).
func NewL1SR(cfg L1Config, r *rand.Rand) *L1SR {
	return NewL1Basis(cfg, r).New()
}

// Update applies x[i] += delta to the CM rows and the sampled
// coordinates (Algorithm 1 lines 2–3, streaming form).
//
//sketch:hotpath
func (l *L1SR) Update(i int, delta float64) {
	l.cm.Update(i, delta)
	l.est.Observe(i, delta)
}

// UpdateBatch applies the batch to the CM rows row-major (one hash-
// coefficient load per row, cache-hot rows) and replays it element-
// ordered into the bias estimator, leaving exactly the state of the
// element-wise Update loop.
//
//sketch:hotpath
func (l *L1SR) UpdateBatch(idx []int, deltas []float64) {
	l.cm.UpdateBatch(idx, deltas)
	for j, i := range idx {
		l.est.Observe(i, deltas[j])
	}
}

// Bias returns the current bias estimate β̂ (Algorithm 2 line 1).
func (l *L1SR) Bias() float64 { return l.est.Bias() }

// Query estimates x[i] by de-biased Count-Median recovery
// (Algorithm 2 lines 2–5, restricted to coordinate i):
//
//	x̂_i = median_t( y_t[h_t(i)] − β̂·π_t[h_t(i)] ) + β̂.
//
//sketch:hotpath
func (l *L1SR) Query(i int) float64 {
	l.cm.CheckIndex(i)
	beta := l.est.Bias()
	pi := l.b.columnSums()
	u := uint64(i)
	for t, h := range l.b.hash {
		b := h.Hash(u)
		l.buf[t] = l.cm.Row(t)[b] - beta*pi[t][b]
	}
	return median(l.buf) + beta
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j
// — de-biased Count-Median recovery, row-major: each CM row's hash
// coefficients, counters, and column counts π load once for the whole
// batch, then the median and the β̂ add-back run per element over the
// gathered, cache-hot columns. β̂ is read once up front; queries never
// change estimator state, so this matches the per-query Bias() calls
// of the element-wise loop and results are bit-identical to it. The
// whole batch is validated before out is written, and scratch is
// borrowed from the shared pool per call, so concurrent QueryBatch
// calls on a quiescent sketch (e.g. a Sharded snapshot replica) are
// safe.
//
//sketch:hotpath
func (l *L1SR) QueryBatch(idx []int, out []float64) {
	l.cm.CheckIndexBatch(idx, out)
	sketch.QueryBatchMedian(l.b.cfg.Depth, idx, out, l.est.Bias(), l)
}

// GatherRow implements sketch.BatchRecovery: row t's de-biased bucket
// values y_t[h_t(i)] − β̂·π_t[h_t(i)] for the tile, with β̂ read from
// sc.Bias. Used by sketch.QueryBatchMedian, not meant for direct
// callers.
//
//sketch:hotpath
func (l *L1SR) GatherRow(t int, tile []int, o []float64, sc *sketch.QScratch) {
	hb := sc.Ints[:len(tile)]
	l.b.hash.HashMany(t, tile, hb)
	row := l.cm.Row(t)
	pi := l.b.columnSums()[t]
	beta := sc.Bias
	for j, b := range hb {
		o[j] = row[b] - beta*pi[b]
	}
}

// Combine implements sketch.BatchRecovery: the row median plus the β̂
// add-back of Algorithm 2 line 5.
//
//sketch:hotpath
func (l *L1SR) Combine(vals []float64, sc *sketch.QScratch) float64 {
	return median(vals) + sc.Bias
}

// Dim returns n.
func (l *L1SR) Dim() int { return l.b.cfg.N }

// Words returns the sketch size in 64-bit words: the d·s counters plus
// the sampled values. (π is hash-derived common knowledge, like the
// hash seeds themselves.)
func (l *L1SR) Words() int { return l.cm.Words() + l.est.Words() }

// Config returns the (defaulted) configuration in use.
func (l *L1SR) Config() L1Config { return l.b.cfg }

// MergeFrom adds another L1SR built with the same configuration and
// random seed, exploiting linearity of both the CM rows and the
// sampled coordinates (the distributed model of §1).
func (l *L1SR) MergeFrom(other *L1SR) error {
	if other.b.cfg != l.b.cfg {
		return sketch.ErrIncompatible
	}
	if err := l.cm.MergeFrom(other.cm); err != nil {
		return err
	}
	return l.est.Merge(other.est)
}

// median returns the Table 1 median of buf, reordering it in place. It
// delegates to the sketch package's median so the recovery combine
// step shares its branchless sorting networks.
//
//sketch:hotpath
func median(buf []float64) float64 { return sketch.Median(buf) }
