package core

import (
	"math/rand"
	"sync"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// estimatorSeed is the seed-derived part of a bias estimator; fresh
// returns an estimator with zeroed state over it.
type estimatorSeed interface {
	fresh() Estimator
}

// Basis is the common knowledge of one configuration of either scheme,
// everything its seed fixes (§5.5, footnote 4): the row hashes h_t
// (and signs r_t of ℓ2-S/R's CS rows), the estimator's seed (Υ, or the
// bias row's hash g and its bucket counts), and every row's column
// sums — π_t[b] = |{j : h_t(j) = b}| for CM rows, ψ_t[b] =
// Σ_{j: h_t(j)=b} r_t(j) for CS rows — built on first use. Replicas
// share it read-only and own only their counters and estimator state.
type Basis struct {
	cfg   Config
	scfg  sketch.Config
	hash  hashing.Family
	signs hashing.SignFamily // nil for ℓ1-S/R's CM rows
	est   estimatorSeed

	sumsOnce sync.Once
	sums     [][]float64
}

// columnSums returns every row's π or ψ, summing on the first call;
// concurrent first callers wait for that one sum.
func (b *Basis) columnSums() [][]float64 {
	b.sumsOnce.Do(func() {
		b.sums = make([][]float64, b.scfg.Depth)
		for t := range b.sums {
			sum := make([]float64, b.scfg.Rows)
			for j := 0; j < b.scfg.N; j++ {
				u := uint64(j)
				if b.signs == nil {
					sum[b.hash.Hash(t, u)]++
				} else {
					sum[b.hash.Hash(t, u)] += b.signs.SignFloat(t, u)
				}
			}
			b.sums[t] = sum
		}
	})
	return b.sums
}

// NewL1Basis draws an ℓ1-S/R configuration's common knowledge from r:
// the CM row hashes, then the estimator's randomness. It panics on an
// invalid cfg.
func NewL1Basis(cfg Config, r *rand.Rand) *Basis { return newBasis(cfg, false, r) }

// NewL2Basis draws an ℓ2-S/R configuration's common knowledge from r:
// the CS row hashes, the signs, then the estimator's randomness. It
// panics on an invalid cfg.
func NewL2Basis(cfg Config, r *rand.Rand) *Basis { return newBasis(cfg, true, r) }

func newBasis(cfg Config, l2 bool, r *rand.Rand) *Basis {
	cfg = cfg.withDefaults(l2)
	if err := cfg.validate(l2); err != nil {
		panic(err)
	}
	scfg := sketch.Config{N: cfg.N, Rows: cfg.Cs * cfg.K, Depth: cfg.Depth}
	hash, err := hashing.NewFamily(r, scfg.Depth, scfg.Rows)
	if err != nil {
		panic(err)
	}
	b := &Basis{cfg: cfg, scfg: scfg, hash: hash}
	if l2 {
		b.signs = hashing.NewSignFamily(r, scfg.Depth)
	}
	switch cfg.Estimator {
	case EstimatorSampledMedian:
		b.est = newSampleSeed(cfg.N, cfg.SampleCount, r)
	case EstimatorMedianBucket:
		b.est = newBucketSeed(cfg.N, scfg.Rows, cfg.K, r)
	case EstimatorMean:
		b.est = meanSeed(cfg.N)
	}
	return b
}

// New returns a zeroed sketch on this basis.
func (b *Basis) New() *SR {
	var tab table
	var err error
	if b.signs == nil {
		tab, err = sketch.NewCountMedianOn(b.scfg, b.hash)
	} else {
		tab, err = sketch.NewCountSketchOn(b.scfg, b.hash, b.signs)
	}
	if err != nil {
		panic(err) // unreachable: b.hash and b.signs were drawn for b.scfg
	}
	return &SR{b: b, tab: tab, rows: tab.Rows(), est: b.est.fresh(), buf: make([]float64, b.scfg.Depth)}
}
