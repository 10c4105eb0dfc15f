package sketch

import (
	"math/rand"
	"testing"
)

// QueryBatch must return bit-identical results to the element-wise
// Query loop on every sketch in this package, across uneven batch
// sizes, after a mixed ingestion history.
func TestQueryBatchMatchesElementwise(t *testing.T) {
	for _, tc := range batchCases(71) {
		t.Run(tc.name, func(t *testing.T) {
			sk := tc.mk()
			r := rand.New(rand.NewSource(72))
			for u := 0; u < 30000; u++ {
				d := float64(r.Intn(9))
				if !tc.insertOnly && r.Intn(3) == 0 {
					d = -d
				}
				sk.Update(r.Intn(20000), d)
			}
			for round := 0; round < 20; round++ {
				m := 1 + r.Intn(600) // uneven batch sizes, incl. tiny ones
				idx := make([]int, m)
				out := make([]float64, m)
				for j := range idx {
					idx[j] = r.Intn(20000)
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

// A query batch is validated before anything is written: an invalid
// element (bad index, mismatched lengths) must panic with out
// untouched, and querying must never mutate sketch state.
func TestQueryBatchValidatesAndDoesNotMutate(t *testing.T) {
	for _, tc := range batchCases(73) {
		t.Run(tc.name, func(t *testing.T) {
			sk := tc.mk()
			r := rand.New(rand.NewSource(74))
			for u := 0; u < 5000; u++ {
				sk.Update(r.Intn(20000), float64(1+r.Intn(5)))
			}
			before := sk.(marshaler).Marshal()

			bad := []struct {
				idx []int
				out []float64
			}{
				{[]int{1, 2, 20000}, []float64{7, 7, 7}}, // out of range
				{[]int{1, 2, -1}, []float64{7, 7, 7}},    // negative index
				{[]int{1, 2}, []float64{7}},              // length mismatch
			}
			for _, c := range bad {
				sentinel := append([]float64(nil), c.out...)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("batch %v should panic", c.idx)
						}
					}()
					sk.QueryBatch(c.idx, c.out)
				}()
				for j := range c.out {
					if c.out[j] != sentinel[j] {
						t.Errorf("rejected batch wrote out[%d] = %v", j, c.out[j])
					}
				}
			}

			idx := []int{0, 5, 19999}
			out := make([]float64, 3)
			sk.QueryBatch(idx, out)
			after := sk.(marshaler).Marshal()
			if string(before) != string(after) {
				t.Fatal("QueryBatch mutated counter state")
			}
		})
	}
}
