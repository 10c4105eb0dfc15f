package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sketch"
)

// Config parameterizes a bias-aware sketch of either scheme. The
// constructor picks the scheme — NewL1SR/NewL1Basis for ℓ1-S/R
// (Algorithms 1–2), NewL2SR/NewL2Basis for ℓ2-S/R (Algorithms 3–4) —
// and fills zero fields with that scheme's defaults.
type Config struct {
	N int // dimension of the input vector
	K int // sparsity/accuracy trade-off parameter of Theorems 3 and 4

	// Cs is the row-width constant c_s: each row has s = Cs·K buckets.
	// The paper requires c_s >= 4; defaults to 4.
	Cs int

	// Depth is d, the number of CM rows (ℓ1) or CS rows (ℓ2): Θ(log n)
	// in Theorems 3–4, 9 in the paper's experiments. Defaults to 9.
	Depth int

	// SampleCount is the number of rows of the sampling matrix Υ, read
	// only by EstimatorSampledMedian. Algorithm 1 uses 20·log n; the
	// paper's implementation uses s extra words instead for a more
	// stable estimate (§5.1). Defaults to 20·⌈log₂ n⌉; set explicitly
	// to mirror the paper's plots.
	SampleCount int

	// Estimator selects the bias estimator. EstimatorDefault gives the
	// paper's: the sampled median for ℓ1-S/R, the median buckets for
	// ℓ2-S/R. EstimatorMean gives the ℓ1-mean and ℓ2-mean heuristics
	// of §5.4, and ℓ2-S/R also takes EstimatorSampledMedian for the
	// ablation study.
	Estimator EstimatorKind
}

// withDefaults fills the zero fields with the defaults of the ℓ1 or,
// if l2, the ℓ2 scheme.
func (c Config) withDefaults(l2 bool) Config {
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
		if l2 {
			c.Estimator = EstimatorMedianBucket
		}
	}
	return c
}

// validate checks a defaulted configuration of the ℓ1 or, if l2, the
// ℓ2 scheme. Only ℓ2-S/R has the CM bias row the median-bucket
// estimator reads.
func (c Config) validate(l2 bool) error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("core: N must be positive, got %d", c.N)
	case c.K <= 0:
		return fmt.Errorf("core: K must be positive, got %d", c.K)
	case c.Cs < 4:
		return fmt.Errorf("core: Cs must be at least 4 (paper requirement), got %d", c.Cs)
	case c.Depth <= 0:
		return fmt.Errorf("core: Depth must be positive, got %d", c.Depth)
	case c.SampleCount <= 0:
		return fmt.Errorf("core: SampleCount must be positive, got %d", c.SampleCount)
	}
	switch {
	case c.Estimator == EstimatorSampledMedian, c.Estimator == EstimatorMean:
		return nil
	case l2 && c.Estimator == EstimatorMedianBucket:
		return nil
	case l2:
		return fmt.Errorf("core: ℓ2-S/R does not support the %v estimator", c.Estimator)
	default:
		return fmt.Errorf("core: ℓ1-S/R does not support the %v estimator", c.Estimator)
	}
}

// table is the linear sketch under a bias-aware sketch: d CM rows
// (*sketch.CountMedian) for ℓ1-S/R, d CS rows (*sketch.CountSketch)
// for ℓ2-S/R.
type table interface {
	sketch.Linear
	UpdateBatch(idx []int, deltas []float64)
	Rows() [][]float64
	CheckIndex(i int)
	CheckIndexBatch(idx []int, out []float64)
	Marshal() []byte
	Unmarshal(b []byte) error
}

// SR is a bias-aware sketch: a linear sketch of x beside a bias
// estimator that watches the same updates. Its scheme is the
// constructor's choice.
//
// ℓ1-S/R (NewL1SR, Algorithms 1–2) has the ℓ∞/ℓ1 guarantee of
// Theorem 3:
//
//	Pr[ ‖x̂−x‖∞ ≤ C1/k · min_β Err_1^k(x−β) ] ≥ 1 − C2/n.
//
// It keeps d CM rows (a Count-Median sketch of x) and a sampling
// matrix Υ whose sampled values feed a running median, the bias
// estimate β̂. The samples stay sorted in an order-statistic tree as
// they are updated, the streaming form of §4.4.
//
// ℓ2-S/R (NewL2SR, Algorithms 3–4) has the ℓ∞/ℓ2 guarantee of
// Theorem 4:
//
//	Pr[ ‖x̂−x‖∞ ≤ C1/√k · min_β Err_2^k(x−β) ] ≥ 1 − C2/n.
//
// It keeps d CS rows (a Count-Sketch of x) and a CM row w = Π(g)x used
// only for bias estimation: β̂ averages the middle 2k buckets in w_i/π_i
// order, and outliers contaminate at most k of them, which Lemma 6
// shows is harmless. The buckets are ordered in a Bias-Heap on the
// first read, in O(s); from then on the heap keeps the order per
// update (Algorithms 5–6): O(log s) per update and O(1) per β̂. Until
// that first read, and again after MergeFrom or UnmarshalState, an
// update only adds into its bucket, so a replica that is only written
// and merged never orders. Either way the middle buckets are the same,
// and on exact sums so is every answer.
//
// Both recover a coordinate the same way, with r ≡ 1 and ψ = π for CM
// rows:
//
//	x̂_i = median_t( r_t(i)·(y_t[h_t(i)] − β̂·ψ_t[h_t(i)]) ) + β̂.
//
// The whole sketch is linear, so replicas of one configuration and
// seed merge (the distributed model of §1).
type SR struct {
	b    *Basis
	tab  table
	rows [][]float64 // tab.Rows(), so reads make no interface call per row
	est  Estimator
	buf  []float64 // per-row values, reused across Query calls
}

// NewL1SR creates an ℓ1-S/R sketch, drawing all randomness from r. It
// is the one replica of a basis of its own; replicas built by name
// share one basis (see Basis).
func NewL1SR(cfg Config, r *rand.Rand) *SR { return NewL1Basis(cfg, r).New() }

// NewL2SR creates an ℓ2-S/R sketch, drawing all randomness from r. It
// is the one replica of a basis of its own; replicas built by name
// share one basis (see Basis).
func NewL2SR(cfg Config, r *rand.Rand) *SR { return NewL2Basis(cfg, r).New() }

// Update applies x[i] += delta to the rows and the bias estimator
// (Algorithm 1 lines 2–3, Algorithm 6 lines 4–6).
//
//sketch:hotpath
func (l *SR) Update(i int, delta float64) {
	l.tab.Update(i, delta)
	l.est.Observe(i, delta)
}

// UpdateBatch applies the batch to the rows row-major (one hash-
// coefficient load per row, cache-hot rows) and replays it element-
// ordered into the bias estimator, leaving exactly the state of the
// element-wise Update loop.
//
//sketch:hotpath
func (l *SR) UpdateBatch(idx []int, deltas []float64) {
	l.tab.UpdateBatch(idx, deltas)
	for j, i := range idx {
		l.est.Observe(i, deltas[j])
	}
}

// Bias returns the current bias estimate β̂ (Algorithm 2 line 1,
// Algorithm 4 line 2, Algorithm 5 line 19).
func (l *SR) Bias() float64 { return l.est.Bias() }

// Query estimates x[i] by de-biased recovery restricted to coordinate
// i (Algorithm 2 lines 2–5, Algorithm 4 lines 3–6).
//
//sketch:hotpath
func (l *SR) Query(i int) float64 {
	l.tab.CheckIndex(i)
	beta := l.est.Bias()
	sums := l.b.columnSums()
	u := uint64(i)
	for t, h := range l.b.hash {
		b := h.Hash(u)
		v := l.rows[t][b] - beta*sums[t][b]
		if l.b.signs != nil {
			v = l.b.signs.SignFloat(t, u) * v
		}
		l.buf[t] = v
	}
	return sketch.Median(l.buf) + beta
}

// QueryBatch writes the estimate of x[idx[j]] into out[j] for every j
// — de-biased recovery, row-major: each row's bucket hash (and sign),
// counters and column sums load once for the whole batch, then the
// median and the β̂ add-back run per element over the gathered,
// cache-hot columns. β̂ is read once up front; queries never change
// estimator state, so this matches the per-query Bias() calls of the
// element-wise loop and results are bit-identical to it. The whole
// batch is validated before out is written, and scratch is borrowed
// from the shared pool per call, so concurrent QueryBatch calls on a
// quiescent sketch (e.g. a Sharded snapshot replica) are safe.
//
//sketch:hotpath
func (l *SR) QueryBatch(idx []int, out []float64) {
	l.tab.CheckIndexBatch(idx, out)
	sketch.QueryBatchMedian(l.b.cfg.Depth, idx, out, l.est.Bias(), l)
}

// GatherRow implements sketch.BatchRecovery: row t's de-biased bucket
// values r_t(i)·(y_t[h_t(i)] − β̂·ψ_t[h_t(i)]) for the tile, with β̂
// read from sc.Bias. Used by sketch.QueryBatchMedian, not meant for
// direct callers.
//
//sketch:hotpath
func (l *SR) GatherRow(t int, tile []int, o []float64, sc *sketch.QScratch) {
	hb := sc.Ints[:len(tile)]
	l.b.hash.HashMany(t, tile, hb)
	row := l.rows[t]
	sums := l.b.columnSums()[t]
	beta := sc.Bias
	if l.b.signs == nil {
		for j, b := range hb {
			o[j] = row[b] - beta*sums[b]
		}
		return
	}
	sg := sc.F1[:len(tile)]
	l.b.signs.SignFloatMany(t, tile, sg)
	for j, b := range hb {
		o[j] = sg[j] * (row[b] - beta*sums[b])
	}
}

// Combine implements sketch.BatchRecovery: the row median plus the β̂
// add-back (Algorithm 2 line 5, Algorithm 4 line 6).
//
//sketch:hotpath
func (l *SR) Combine(vals []float64, sc *sketch.QScratch) float64 {
	return sketch.Median(vals) + sc.Bias
}

// GatherMagRange implements sketch.ScanRecovery: |y_t[h_t(i)] −
// β̂·ψ_t[h_t(i)]| for the keys i = lo, lo+1, …, with β̂ read from
// sc.Bias. A Count-Sketch sign has magnitude 1, so no row needs a sign
// hash. Used by sketch.ScanMedian, not meant for direct callers.
//
//sketch:hotpath
func (l *SR) GatherMagRange(t, lo int, o []float64, sc *sketch.QScratch) {
	hb := sc.Ints[:len(o)]
	l.b.hash.HashRange(t, uint64(lo), hb)
	row := l.rows[t]
	sums := l.b.columnSums()[t]
	beta := sc.Bias
	for j, b := range hb {
		o[j] = math.Abs(row[b] - beta*sums[b])
	}
}

// ScanRange writes into idx and out, in increasing key order, the keys
// of [lo, hi) whose deviation |x̂_i − β̂| may exceed tau, with their
// QueryBatch estimates, and returns how many. Every key it leaves out
// deviates by at most tau; a tau that is not positive and finite
// leaves none out. idx and out need room for hi−lo keys, and it panics
// unless 0 <= lo <= hi <= Dim(). β̂ is read once, as in QueryBatch.
//
//sketch:hotpath
func (l *SR) ScanRange(lo, hi int, tau float64, idx []int, out []float64) int {
	if n := l.b.cfg.N; lo < 0 || lo > hi || hi > n {
		panic(fmt.Sprintf("core: range [%d,%d) out of [0,%d)", lo, hi, n))
	}
	if len(idx) < hi-lo || len(out) < hi-lo {
		panic(fmt.Sprintf("core: range of %d keys, room for %d indexes and %d outputs", hi-lo, len(idx), len(out)))
	}
	return sketch.ScanMedian(l.b.cfg.Depth, lo, hi, tau, l.est.Bias(), l, idx, out)
}

// Dim returns n.
func (l *SR) Dim() int { return l.b.cfg.N }

// Words returns the sketch size in 64-bit words: the d·s counters plus
// the estimator's words (the sampled values, the s-bucket bias row, or
// one mass). The hashes, Υ and the column sums are common knowledge
// drawn from the seed.
func (l *SR) Words() int { return l.tab.Words() + l.est.Words() }

// Config returns the (defaulted) configuration in use.
func (l *SR) Config() Config { return l.b.cfg }

// MergeFrom adds another replica of the same scheme, configuration and
// random seed (the distributed model of §1): the rows and the
// estimator's state are both linear. A replica of the other scheme is
// refused even when the configurations are equal, since CM rows and
// CS rows refuse each other.
func (l *SR) MergeFrom(other *SR) error {
	if other.b.cfg != l.b.cfg {
		return sketch.ErrIncompatible
	}
	if err := l.tab.MergeFrom(other.tab); err != nil {
		return err
	}
	return l.est.Merge(other.est)
}
