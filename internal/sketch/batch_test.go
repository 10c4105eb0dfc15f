package sketch

import (
	"bytes"
	"math/rand"
	"testing"
)

// batchCases constructs one of every sketch in this package from the
// same shape and seed, paired with a twin for the element-wise
// reference. insertOnly marks the conservative-update sketches, whose
// streams must stay non-negative.
func batchCases(seed int64) []struct {
	name       string
	mk         func() Sketch
	insertOnly bool
} {
	cfg := Config{N: 20000, Rows: 256, Depth: 7}
	return []struct {
		name       string
		mk         func() Sketch
		insertOnly bool
	}{
		{"countmin", func() Sketch { return must(NewCountMin(cfg, rand.New(rand.NewSource(seed)))) }, false},
		{"countmedian", func() Sketch { return must(NewCountMedian(cfg, rand.New(rand.NewSource(seed)))) }, false},
		{"countsketch", func() Sketch { return must(NewCountSketch(cfg, rand.New(rand.NewSource(seed)))) }, false},
		{"dengrafiei", func() Sketch { return must(NewDengRafiei(cfg, rand.New(rand.NewSource(seed)))) }, false},
		{"cmcu", func() Sketch { return must(NewCMCU(cfg, rand.New(rand.NewSource(seed)))) }, true},
		{"cmlcu", func() Sketch { return must(NewCMLCU(cfg, DefaultCMLBase, rand.New(rand.NewSource(seed)))) }, true},
	}
}

// UpdateBatch must leave bit-identical state to the element-wise
// Update loop: per cell the addends arrive in the same order (linear
// sketches), and the conservative sketches process elements in stream
// order, so even floating point agrees exactly.
func TestUpdateBatchMatchesElementwise(t *testing.T) {
	for _, tc := range batchCases(51) {
		t.Run(tc.name, func(t *testing.T) {
			batched, seq := tc.mk(), tc.mk()
			r := rand.New(rand.NewSource(52))
			for round := 0; round < 20; round++ {
				m := 1 + r.Intn(600) // uneven batch sizes, incl. tiny ones
				idx := make([]int, m)
				deltas := make([]float64, m)
				for j := range idx {
					idx[j] = r.Intn(20000)
					deltas[j] = float64(r.Intn(9))
					if !tc.insertOnly && r.Intn(3) == 0 {
						deltas[j] = -deltas[j]
					}
				}
				batched.UpdateBatch(idx, deltas)
				for j := range idx {
					seq.Update(idx[j], deltas[j])
				}
			}
			a, b := batched.(marshaler).Marshal(), seq.(marshaler).Marshal()
			if !bytes.Equal(a, b) {
				t.Fatal("batched and element-wise counter state differ")
			}
			for i := 0; i < 20000; i += 97 {
				if x, y := batched.Query(i), seq.Query(i); x != y {
					t.Fatalf("query %d: batched %v, element-wise %v", i, x, y)
				}
			}
		})
	}
}

// marshaler mirrors the registry's state surface for the exactness
// check above.
type marshaler interface{ Marshal() []byte }

// A batch is all-or-nothing: an invalid element (bad index, mismatched
// lengths, negative delta on an insert-only sketch) must panic before
// any counter moves.
func TestUpdateBatchValidatesBeforeTouchingState(t *testing.T) {
	for _, tc := range batchCases(53) {
		t.Run(tc.name, func(t *testing.T) {
			sk := tc.mk()
			bad := [][2]interface{}{
				{[]int{1, 2, 20000}, []float64{1, 1, 1}}, // out of range
				{[]int{1, 2, -1}, []float64{1, 1, 1}},    // negative index
				{[]int{1, 2}, []float64{1}},              // length mismatch
			}
			if tc.insertOnly {
				bad = append(bad, [2]interface{}{[]int{1, 2, 3}, []float64{1, 1, -1}})
			}
			for _, c := range bad {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("batch %v/%v should panic", c[0], c[1])
						}
					}()
					sk.UpdateBatch(c[0].([]int), c[1].([]float64))
				}()
			}
			for i := 0; i < 20000; i += 501 {
				if v := sk.Query(i); v != 0 {
					t.Fatalf("state modified by rejected batch: Query(%d) = %v", i, v)
				}
			}
		})
	}
}
