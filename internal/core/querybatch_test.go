package core

import (
	"math/rand"
	"testing"
)

// biasBatchQuerier is the read surface shared by L1SR and L2SR that
// the batched-query equivalence tests exercise.
type biasBatchQuerier interface {
	Update(i int, delta float64)
	Query(i int) float64
	QueryBatch(idx []int, out []float64)
	Bias() float64
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
			return NewL1SR(L1Config{N: n, K: 64}, rand.New(rand.NewSource(seed)))
		}},
		{"l2sr-heap", func(seed int64) biasBatchQuerier {
			return NewL2SR(L2Config{N: n, K: 64, UseBiasHeap: true}, rand.New(rand.NewSource(seed)))
		}},
		{"l2sr-sort", func(seed int64) biasBatchQuerier {
			return NewL2SR(L2Config{N: n, K: 64}, rand.New(rand.NewSource(seed)))
		}},
		{"l1mean", func(seed int64) biasBatchQuerier {
			return NewL1SR(L1Config{N: n, K: 64, SampleCount: 1, Estimator: EstimatorMean},
				rand.New(rand.NewSource(seed)))
		}},
		{"l2mean", func(seed int64) biasBatchQuerier {
			return NewL2SR(L2Config{N: n, K: 64, Estimator: EstimatorMean},
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
	l2 := NewL2SR(L2Config{N: 100, K: 4, UseBiasHeap: true}, rand.New(rand.NewSource(83)))
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
// the lazy query caches (the basis's π/ψ, the sort-estimator bias
// cache) are still cold: the first readers build them once and all
// readers agree. Exercised under -race.
func TestConcurrentColdCacheQueryBatch(t *testing.T) {
	const n = 10000
	for _, tc := range queryBatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			sk := tc.mk(91)
			r := rand.New(rand.NewSource(92))
			for u := 0; u < 10000; u++ {
				sk.Update(r.Intn(n), float64(r.Intn(5)))
			}
			idx := make([]int, 200)
			for j := range idx {
				idx[j] = r.Intn(n)
			}
			done := make(chan []float64, 4)
			for g := 0; g < 4; g++ {
				go func() {
					out := make([]float64, len(idx))
					sk.QueryBatch(idx, out)
					done <- out
				}()
			}
			first := <-done
			for g := 1; g < 4; g++ {
				out := <-done
				for j := range idx {
					if out[j] != first[j] {
						t.Fatalf("cold-cache readers diverged at %d: %v vs %v", idx[j], out[j], first[j])
					}
				}
			}
		})
	}
}
