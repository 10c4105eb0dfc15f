package core

import (
	"fmt"
	"math"
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

// basis is the common knowledge of one configuration, everything its
// seed fixes (§5.5, footnote 4): the row hashes h_t (and signs r_t of
// CS rows), the estimator's seed, and every row's column sums — π_t[b]
// = |{j : h_t(j) = b}| for CM rows, ψ_t[b] = Σ_{j: h_t(j)=b} r_t(j)
// for CS rows — built on first use. Replicas share it read-only and
// own only their counters and estimator state.
type basis struct {
	scfg  sketch.Config
	hash  hashing.Family
	signs hashing.SignFamily // nil for CM rows
	est   estimatorSeed

	sumsOnce sync.Once
	sums     [][]float64
}

// columnSums returns every row's π or ψ, summing on the first call;
// concurrent first callers wait for that one sum.
func (b *basis) columnSums() [][]float64 {
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

// gatherMagRange writes |row[h_t(i)] − β̂·sums_t[h_t(i)]| for the keys
// i = lo, lo+1, … into o, with β̂ read from sc.Bias — GatherMagRange of
// both recoveries. A Count-Sketch sign has magnitude 1, so the ℓ2 rows
// need no sign hash.
//
//sketch:hotpath
func (b *basis) gatherMagRange(t, lo int, row, o []float64, sc *sketch.QScratch) {
	hb := sc.Ints[:len(o)]
	b.hash.HashRange(t, uint64(lo), hb)
	sums := b.columnSums()[t]
	beta := sc.Bias
	for j, k := range hb {
		o[j] = math.Abs(row[k] - beta*sums[k])
	}
}

// checkRange panics unless 0 <= lo <= hi <= N and idx and out have
// room for hi−lo keys — the contract of ScanRange, checked before
// anything is written.
func (b *basis) checkRange(lo, hi int, idx []int, out []float64) {
	if lo < 0 || lo > hi || hi > b.scfg.N {
		panic(fmt.Sprintf("core: range [%d,%d) out of [0,%d)", lo, hi, b.scfg.N))
	}
	if len(idx) < hi-lo || len(out) < hi-lo {
		panic(fmt.Sprintf("core: range of %d keys, room for %d indexes and %d outputs", hi-lo, len(idx), len(out)))
	}
}

// L1Basis is the common knowledge of one ℓ1-S/R configuration: the CM
// row hashes, the sampling matrix Υ (for the sampled median) and π.
type L1Basis struct {
	cfg L1Config
	basis
}

// NewL1Basis draws an ℓ1-S/R configuration's common knowledge from r:
// the CM row hashes, then the estimator's randomness. It panics on an
// invalid cfg.
func NewL1Basis(cfg L1Config, r *rand.Rand) *L1Basis {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	scfg := sketch.Config{N: cfg.N, Rows: cfg.Cs * cfg.K, Depth: cfg.Depth}
	hash, err := hashing.NewFamily(r, scfg.Depth, scfg.Rows)
	if err != nil {
		panic(err)
	}
	b := &L1Basis{cfg: cfg, basis: basis{scfg: scfg, hash: hash}}
	switch cfg.Estimator {
	case EstimatorSampledMedian:
		b.est = newSampleSeed(cfg.N, cfg.SampleCount, r)
	case EstimatorMean:
		b.est = meanSeed(cfg.N)
	}
	return b
}

// New returns a zeroed ℓ1-S/R sketch on this basis.
func (b *L1Basis) New() *L1SR {
	cm, err := sketch.NewCountMedianOn(b.scfg, b.hash)
	if err != nil {
		panic(err) // unreachable: b.hash was drawn for b.scfg
	}
	return &L1SR{b: b, cm: cm, est: b.est.fresh(), buf: make([]float64, b.cfg.Depth)}
}

// L2Basis is the common knowledge of one ℓ2-S/R configuration: the CS
// row hashes and signs, the estimator's hash g with its bucket counts
// (or Υ) and ψ.
type L2Basis struct {
	cfg L2Config
	basis
}

// NewL2Basis draws an ℓ2-S/R configuration's common knowledge from r:
// the CS row hashes, the signs, then the estimator's randomness. It
// panics on an invalid cfg.
func NewL2Basis(cfg L2Config, r *rand.Rand) *L2Basis {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	scfg := sketch.Config{N: cfg.N, Rows: cfg.Cs * cfg.K, Depth: cfg.Depth}
	hash, err := hashing.NewFamily(r, scfg.Depth, scfg.Rows)
	if err != nil {
		panic(err)
	}
	b := &L2Basis{cfg: cfg, basis: basis{scfg: scfg, hash: hash, signs: hashing.NewSignFamily(r, scfg.Depth)}}
	switch cfg.Estimator {
	case EstimatorMedianBucket:
		b.est = newBucketSeed(cfg.N, scfg.Rows, cfg.K, r)
	case EstimatorMean:
		b.est = meanSeed(cfg.N)
	case EstimatorSampledMedian:
		b.est = newSampleSeed(cfg.N, cfg.SampleCount, r)
	}
	return b
}

// New returns a zeroed ℓ2-S/R sketch on this basis.
func (b *L2Basis) New() *L2SR {
	cs, err := sketch.NewCountSketchOn(b.scfg, b.hash, b.signs)
	if err != nil {
		panic(err) // unreachable: b.hash and b.signs were drawn for b.scfg
	}
	return &L2SR{b: b, cs: cs, est: b.est.fresh(), buf: make([]float64, b.cfg.Depth)}
}
