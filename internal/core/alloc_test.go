// AllocsPerRun gates are meaningless under the race detector: race-
// instrumented sync.Pool randomly drops Puts, so pooled paths
// legitimately allocate. The lexical hotpathalloc analyzer still
// covers these paths in race builds.
//go:build !race

package core

import (
	"math/rand"
	"testing"
)

// Runtime gates of the //sketch:hotpath contract for the bias-aware
// recoveries: once the first query has built the lazy caches (the
// basis's π/ψ, the Bias-Heap's order) and primed the shared scratch
// pool, QueryBatch and UpdateBatch run with zero allocations per call.

const (
	allocDim   = 1 << 12
	allocBatch = 600
)

func allocCoreBatch(r *rand.Rand) (idx []int, deltas, out []float64) {
	idx = make([]int, allocBatch)
	deltas = make([]float64, allocBatch)
	out = make([]float64, allocBatch)
	for j := range idx {
		idx[j] = r.Intn(allocDim)
		deltas[j] = float64(1 + r.Intn(5))
	}
	return idx, deltas, out
}

func TestL1SRQueryBatchAllocFree(t *testing.T) {
	for _, est := range []EstimatorKind{EstimatorSampledMedian, EstimatorMean} {
		r := rand.New(rand.NewSource(11))
		l := NewL1SR(Config{N: allocDim, K: 16, Estimator: est}, r)
		idx, deltas, out := allocCoreBatch(r)
		l.UpdateBatch(idx, deltas)
		l.QueryBatch(idx, out) // warm-up: primes the scratch pool
		if n := testing.AllocsPerRun(50, func() { l.QueryBatch(idx, out) }); n != 0 {
			t.Errorf("estimator %v: QueryBatch allocates %.1f per call in steady state", est, n)
		}
	}
}

func TestL2SRQueryBatchAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := NewL2SR(Config{N: allocDim, K: 16}, r)
	idx, deltas, out := allocCoreBatch(r)
	l.UpdateBatch(idx, deltas)
	l.QueryBatch(idx, out)
	if n := testing.AllocsPerRun(50, func() { l.QueryBatch(idx, out) }); n != 0 {
		t.Errorf("QueryBatch allocates %.1f per call in steady state", n)
	}
}

// The ℓ2 update path is fully in-place: the bias row and the Bias-Heap
// (TestL2SRSettleAllocFree) re-seat buckets without allocating.
func TestL2SRUpdateBatchAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := NewL2SR(Config{N: allocDim, K: 16}, r)
	idx, deltas, _ := allocCoreBatch(r)
	l.UpdateBatch(idx, deltas)
	if n := testing.AllocsPerRun(50, func() { l.UpdateBatch(idx, deltas) }); n != 0 {
		t.Errorf("UpdateBatch allocates %.1f per call in steady state", n)
	}
}

// Settling allocates nothing: a read replica's UpdateBatch re-seats
// buckets in the Bias-Heap in place, and the first read after a merge,
// which unsettles the replica, rebuilds the heap in place.
func TestL2SRSettleAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	b := NewL2Basis(Config{N: allocDim, K: 16}, r)
	l, empty := b.New(), b.New()
	idx, deltas, out := allocCoreBatch(r)
	l.UpdateBatch(idx, deltas)
	l.QueryBatch(idx, out)
	if n := testing.AllocsPerRun(50, func() { l.UpdateBatch(idx, deltas) }); n != 0 {
		t.Errorf("settled UpdateBatch allocates %.1f per call", n)
	}
	settle := func() {
		if err := l.MergeFrom(empty); err != nil {
			t.Fatal(err)
		}
		l.QueryBatch(idx, out)
	}
	if n := testing.AllocsPerRun(50, settle); n != 0 {
		t.Errorf("merge + first QueryBatch allocates %.1f per call", n)
	}
}

// The ℓ1 sampled-median estimator stores sampled values in an
// order-statistic tree, which legitimately allocates a node when a
// sampled coordinate moves to a value not already in the tree — that
// is data-structure maintenance, not per-call scratch. The CM-row half
// of the update path must still be allocation-free, which this gate
// checks with a batch that avoids the sampled coordinates (and, for
// full coverage of the estimator-free path, the mean estimator).
func TestL1SRUpdateBatchAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := NewL1SR(Config{N: allocDim, K: 16}, r)
	sampled := l.est.(*sampleMedianEstimator).bySource
	idx := make([]int, 0, allocBatch)
	deltas := make([]float64, 0, allocBatch)
	for i := 0; len(idx) < allocBatch; i++ {
		c := i % allocDim
		if len(sampled[c]) > 0 {
			continue
		}
		idx = append(idx, c)
		deltas = append(deltas, float64(1+i%5))
	}
	l.UpdateBatch(idx, deltas)
	if n := testing.AllocsPerRun(50, func() { l.UpdateBatch(idx, deltas) }); n != 0 {
		t.Errorf("UpdateBatch (unsampled coords) allocates %.1f per call in steady state", n)
	}

	rm := rand.New(rand.NewSource(11))
	lm := NewL1SR(Config{N: allocDim, K: 16, Estimator: EstimatorMean}, rm)
	midx, mdeltas, _ := allocCoreBatch(rm)
	lm.UpdateBatch(midx, mdeltas)
	if n := testing.AllocsPerRun(50, func() { lm.UpdateBatch(midx, mdeltas) }); n != 0 {
		t.Errorf("UpdateBatch (mean estimator) allocates %.1f per call in steady state", n)
	}
}

// The range scan behind TopK and Scan runs allocation-free once the
// pool is primed, on both recoveries, for a bound that prunes and one
// that answers the whole range.
func TestScanRangeAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	l1 := NewL1SR(Config{N: allocDim, K: 16}, r)
	l2 := NewL2SR(Config{N: allocDim, K: 16}, r)
	idx, deltas, _ := allocCoreBatch(r)
	idx[0], deltas[0] = 3, 1e5
	l1.UpdateBatch(idx, deltas)
	l2.UpdateBatch(idx, deltas)
	keys := make([]int, allocDim)
	out := make([]float64, allocDim)
	for name, s := range map[string]interface {
		ScanRange(lo, hi int, tau float64, idx []int, out []float64) int
	}{"l1sr": l1, "l2sr": l2} {
		for _, tau := range []float64{1e4, -1} {
			s.ScanRange(0, allocDim, tau, keys, out) // warm-up: primes the scratch pool
			if n := testing.AllocsPerRun(20, func() { s.ScanRange(0, allocDim, tau, keys, out) }); n != 0 {
				t.Errorf("%s tau=%v: ScanRange allocates %.1f per call in steady state", name, tau, n)
			}
		}
	}
}

// The bucket listing behind TopK and Scan runs allocation-free once the
// pool is primed and dst has room: the key bitmap is pooled, not made
// per call.
func TestCandidatesAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	l1 := NewL1SR(Config{N: allocDim, K: 16}, r)
	l2 := NewL2SR(Config{N: allocDim, K: 16}, r)
	idx, deltas, _ := allocCoreBatch(r)
	idx[0], deltas[0] = 3, 1e5
	l1.UpdateBatch(idx, deltas)
	l2.UpdateBatch(idx, deltas)
	dst := make([]int, 0, allocDim)
	for name, s := range map[string]interface {
		SeedKeys(k, limit int, dst []int) ([]int, bool)
		Candidates(tau float64, limit int, dst []int) ([]int, bool)
	}{"l1sr": l1, "l2sr": l2} {
		s.Candidates(1e4, allocDim, dst) // warm-up: primes the pools
		if n := testing.AllocsPerRun(20, func() { s.Candidates(1e4, allocDim, dst) }); n != 0 {
			t.Errorf("%s: Candidates allocates %.1f per call in steady state", name, n)
		}
		s.SeedKeys(4, allocDim, dst)
		if n := testing.AllocsPerRun(20, func() { s.SeedKeys(4, allocDim, dst) }); n != 0 {
			t.Errorf("%s: SeedKeys allocates %.1f per call in steady state", name, n)
		}
	}
}
