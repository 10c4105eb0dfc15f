package core

import (
	"math/rand"
	"testing"
)

// biasBatcher is the surface shared by ℓ1-S/R and ℓ2-S/R that the batch
// equivalence tests exercise.
type biasBatcher interface {
	Update(i int, delta float64)
	UpdateBatch(idx []int, deltas []float64)
	Query(i int) float64
	Bias() float64
}

// The bias-aware sketches' UpdateBatch must leave exactly the state of
// the element-wise loop: identical point queries AND identical bias
// estimates (the estimator sees the batch in element order).
func TestBiasAwareUpdateBatchMatchesElementwise(t *testing.T) {
	const n = 10000
	cases := []struct {
		name string
		mk   func(seed int64) biasBatcher
	}{
		{"l1sr", func(seed int64) biasBatcher {
			return NewL1SR(Config{N: n, K: 64}, rand.New(rand.NewSource(seed)))
		}},
		// l2sr-heap is read before its first update, so its Bias-Heap
		// keeps the order per update (Algorithm 5); l2sr-sort is first
		// read by the test and orders its buckets then (Algorithm 4).
		{"l2sr-heap", func(seed int64) biasBatcher {
			return settledL2SR(Config{N: n, K: 64}, seed)
		}},
		{"l2sr-sort", func(seed int64) biasBatcher {
			return NewL2SR(Config{N: n, K: 64}, rand.New(rand.NewSource(seed)))
		}},
		{"l1mean", func(seed int64) biasBatcher {
			return NewL1SR(Config{N: n, K: 64, SampleCount: 1, Estimator: EstimatorMean},
				rand.New(rand.NewSource(seed)))
		}},
		{"l2mean", func(seed int64) biasBatcher {
			return NewL2SR(Config{N: n, K: 64, Estimator: EstimatorMean},
				rand.New(rand.NewSource(seed)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batched, seq := tc.mk(61), tc.mk(61)
			r := rand.New(rand.NewSource(62))
			for round := 0; round < 15; round++ {
				m := 1 + r.Intn(500)
				idx := make([]int, m)
				deltas := make([]float64, m)
				for j := range idx {
					idx[j] = r.Intn(n)
					deltas[j] = float64(r.Intn(7) - 2)
				}
				batched.UpdateBatch(idx, deltas)
				for j := range idx {
					seq.Update(idx[j], deltas[j])
				}
			}
			if a, b := batched.Bias(), seq.Bias(); a != b {
				t.Fatalf("bias: batched %v, element-wise %v", a, b)
			}
			for i := 0; i < n; i += 53 {
				if a, b := batched.Query(i), seq.Query(i); a != b {
					t.Fatalf("query %d: batched %v, element-wise %v", i, a, b)
				}
			}
		})
	}
}

// A batch with an invalid index panics before the CM/CS rows or the
// estimator see anything — the sketch and estimator cannot diverge.
func TestBiasAwareUpdateBatchAllOrNothing(t *testing.T) {
	l2 := NewL2SR(Config{N: 100, K: 4}, rand.New(rand.NewSource(63)))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range batch should panic")
			}
		}()
		l2.UpdateBatch([]int{1, 2, 100}, []float64{5, 5, 5})
	}()
	if l2.Bias() != 0 {
		t.Fatalf("estimator saw a rejected batch: bias %v", l2.Bias())
	}
	for i := 0; i < 100; i++ {
		if l2.Query(i) != 0 {
			t.Fatalf("rows saw a rejected batch: query %d = %v", i, l2.Query(i))
		}
	}
}
