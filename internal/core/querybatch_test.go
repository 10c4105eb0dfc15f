package core

import (
	"math"
	"math/rand"
	"testing"
)

// biasBatchQuerier is the read surface shared by ℓ1-S/R and ℓ2-S/R that
// the batched-query equivalence tests exercise.
type biasBatchQuerier interface {
	Update(i int, delta float64)
	Query(i int) float64
	QueryBatch(idx []int, out []float64)
	Bias() float64
	ScanRange(lo, hi int, tau float64, idx []int, out []float64) int
}

func queryBatchCases() []struct {
	name string
	mk   func(seed int64) biasBatchQuerier
} {
	const n = 10000
	return []struct {
		name string
		mk   func(seed int64) biasBatchQuerier
	}{
		{"l1sr", func(seed int64) biasBatchQuerier {
			return NewL1SR(Config{N: n, K: 64}, rand.New(rand.NewSource(seed)))
		}},
		// l2sr-heap is read before its first update, so its Bias-Heap
		// keeps the order per update (Algorithm 5); l2sr-sort is first
		// read by the test and orders its buckets then (Algorithm 4).
		{"l2sr-heap", func(seed int64) biasBatchQuerier {
			return settledL2SR(Config{N: n, K: 64}, seed)
		}},
		{"l2sr-sort", func(seed int64) biasBatchQuerier {
			return NewL2SR(Config{N: n, K: 64}, rand.New(rand.NewSource(seed)))
		}},
		{"l1mean", func(seed int64) biasBatchQuerier {
			return NewL1SR(Config{N: n, K: 64, SampleCount: 1, Estimator: EstimatorMean},
				rand.New(rand.NewSource(seed)))
		}},
		{"l2mean", func(seed int64) biasBatchQuerier {
			return NewL2SR(Config{N: n, K: 64, Estimator: EstimatorMean},
				rand.New(rand.NewSource(seed)))
		}},
	}
}

// The bias-aware sketches' QueryBatch must return bit-identical
// results to the element-wise Query loop — including the de-biasing by
// β̂ and the add-back — across every estimator variant.
func TestBiasAwareQueryBatchMatchesElementwise(t *testing.T) {
	const n = 10000
	for _, tc := range queryBatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			sk := tc.mk(81)
			r := rand.New(rand.NewSource(82))
			for u := 0; u < 30000; u++ {
				sk.Update(r.Intn(n), float64(r.Intn(7)-2))
			}
			for round := 0; round < 15; round++ {
				m := 1 + r.Intn(500)
				idx := make([]int, m)
				out := make([]float64, m)
				for j := range idx {
					idx[j] = r.Intn(n)
				}
				sk.QueryBatch(idx, out)
				for j, i := range idx {
					if want := sk.Query(i); out[j] != want {
						t.Fatalf("query %d: batched %v, element-wise %v", i, out[j], want)
					}
				}
			}
		})
	}
}

// An invalid query batch panics before out is written, and querying —
// batched or not — leaves the bias estimate untouched.
func TestBiasAwareQueryBatchValidates(t *testing.T) {
	l2 := NewL2SR(Config{N: 100, K: 4}, rand.New(rand.NewSource(83)))
	for i := 0; i < 100; i++ {
		l2.Update(i, 5)
	}
	out := []float64{-1, -1, -1}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range query batch should panic")
			}
		}()
		l2.QueryBatch([]int{1, 2, 100}, out)
	}()
	for j, v := range out {
		if v != -1 {
			t.Fatalf("rejected batch wrote out[%d] = %v", j, v)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch should panic")
			}
		}()
		l2.QueryBatch([]int{1, 2}, make([]float64, 1))
	}()
}

// Concurrent QueryBatch on a quiescent sketch must be safe even when
// its lazy read state is still cold — the basis's π/ψ, and for ℓ2-S/R
// the Bias-Heap's order, which a merge or a restore also discards: the
// first readers build it once and all readers agree. Exercised under
// -race.
func TestConcurrentColdCacheQueryBatch(t *testing.T) {
	const n = 10000
	// feed writes the test's updates into sk and returns the keys to
	// read.
	feed := func(sk biasBatchQuerier) []int {
		r := rand.New(rand.NewSource(92))
		for u := 0; u < 10000; u++ {
			sk.Update(r.Intn(n), float64(r.Intn(5)))
		}
		idx := make([]int, 200)
		for j := range idx {
			idx[j] = r.Intn(n)
		}
		return idx
	}
	for _, tc := range queryBatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			sk := tc.mk(91)
			readConcurrently(t, sk, feed(sk), nil)
		})
	}
	// A replica that was read, then merged into or restored, is
	// unsettled again: its readers settle it once and answer like the
	// replica whose state it took.
	for _, how := range []string{"l2sr-merged", "l2sr-restored"} {
		t.Run(how, func(t *testing.T) {
			b := NewL2Basis(Config{N: n, K: 64}, rand.New(rand.NewSource(91)))
			src, dst := b.New(), b.New()
			idx := feed(src)
			dst.Bias()
			var err error
			if how == "l2sr-merged" {
				err = dst.MergeFrom(src)
			} else {
				err = dst.UnmarshalState(src.MarshalState())
			}
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(idx))
			src.QueryBatch(idx, want)
			readConcurrently(t, dst, idx, want)
		})
	}
}

// readConcurrently runs QueryBatch(idx) on sk from four goroutines at
// once and fails unless they all agree bit for bit, with want too when
// it is not nil.
func readConcurrently(t *testing.T, sk biasBatchQuerier, idx []int, want []float64) {
	t.Helper()
	const readers = 4
	done := make(chan []float64, readers)
	for g := 0; g < readers; g++ {
		go func() {
			out := make([]float64, len(idx))
			sk.QueryBatch(idx, out)
			done <- out
		}()
	}
	for g := 0; g < readers; g++ {
		out := <-done
		if want == nil {
			want = out
			continue
		}
		for j := range idx {
			if math.Float64bits(out[j]) != math.Float64bits(want[j]) {
				t.Fatalf("cold-cache readers diverged at %d: %v vs %v", idx[j], out[j], want[j])
			}
		}
	}
}

// ScanRange answers the keys it keeps with their QueryBatch estimates
// bit for bit, in increasing order, and keeps every key whose
// deviation exceeds tau — on every estimator variant, with planted
// outliers, at bounds taken from the sketch's own deviations.
func TestBiasAwareScanRangeMatchesQueryBatch(t *testing.T) {
	const n = 10000
	for _, tc := range queryBatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			sk := tc.mk(85)
			r := rand.New(rand.NewSource(86))
			for u := 0; u < 30000; u++ {
				sk.Update(r.Intn(n), float64(1+r.Intn(5)))
			}
			for p := 0; p < 12; p++ {
				sk.Update(r.Intn(n), float64(1000*(p+1)))
			}
			all := make([]int, n)
			est := make([]float64, n)
			for i := range all {
				all[i] = i
			}
			sk.QueryBatch(all, est)
			beta := sk.Bias()
			top := 0.0
			for _, e := range est {
				top = max(top, math.Abs(e-beta))
			}
			idx := make([]int, n)
			out := make([]float64, n)
			for _, tau := range []float64{top / 2, top / 10, math.Abs(est[7] - beta), 0} {
				lo, hi := 0, n
				if tau != top/2 {
					lo = r.Intn(n / 2)
					hi = lo + r.Intn(n-lo+1)
				}
				m := sk.ScanRange(lo, hi, tau, idx, out)
				kept := make(map[int]bool, m)
				for j, i := range idx[:m] {
					if i < lo || i >= hi || j > 0 && i <= idx[j-1] {
						t.Fatalf("tau %v: survivors not ascending within [%d,%d)", tau, lo, hi)
					}
					kept[i] = true
					if math.Float64bits(out[j]) != math.Float64bits(est[i]) {
						t.Fatalf("key %d: ScanRange %v, QueryBatch %v", i, out[j], est[i])
					}
				}
				for i := lo; i < hi; i++ {
					if math.Abs(est[i]-beta) > tau && !kept[i] {
						t.Fatalf("tau %v: dropped key %d with deviation %v", tau, i, math.Abs(est[i]-beta))
					}
				}
				if tau == 0 && m != hi-lo {
					t.Fatalf("tau 0 dropped %d keys", hi-lo-m)
				}
				if tau == top/2 && m > n/10 {
					t.Fatalf("tau %v kept %d of %d keys: the bound prunes nothing", tau, m, hi-lo)
				}
			}
		})
	}
}

// A range outside [0, N) or buffers too short for it panic before
// anything is written.
func TestBiasAwareScanRangeValidates(t *testing.T) {
	for _, tc := range queryBatchCases() {
		sk := tc.mk(87)
		for _, c := range []struct {
			lo, hi, room int
		}{{-1, 5, 10}, {5, 4, 10}, {0, 10001, 20000}, {0, 10, 9}} {
			idx := make([]int, c.room)
			out := make([]float64, c.room)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: ScanRange(%d, %d) with room %d should panic", tc.name, c.lo, c.hi, c.room)
					}
				}()
				sk.ScanRange(c.lo, c.hi, 1, idx, out)
			}()
			for j := range idx {
				if idx[j] != 0 || out[j] != 0 {
					t.Fatalf("%s: rejected range wrote position %d", tc.name, j)
				}
			}
		}
	}
}
