// AllocsPerRun gates are meaningless under the race detector (see
// internal/sketch/alloc_test.go for the rationale).
//go:build !race

package hashing

import (
	"math/rand"
	"testing"
)

// The batched kernels are the per-row inner loops of every sketch's
// hot path: they must stay allocation-free.
func TestBatchedKernelsAllocFree(t *testing.T) {
	const rang, n = 4096, 600
	r := rand.New(rand.NewSource(7))
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Intn(1 << 20)
	}
	hout := make([]int, n)
	sout := make([]float64, n)

	f := must(NewFamily(r, 3, rang))
	if a := testing.AllocsPerRun(50, func() { f.HashMany(1, xs, hout) }); a != 0 {
		t.Errorf("Family.HashMany allocates %.1f per call", a)
	}
	if a := testing.AllocsPerRun(50, func() { f.HashRange(1, 1<<20, hout) }); a != 0 {
		t.Errorf("Family.HashRange allocates %.1f per call", a)
	}
	sf := NewSignFamily(r, 3)
	if a := testing.AllocsPerRun(50, func() { sf.SignFloatMany(1, xs, sout) }); a != 0 {
		t.Errorf("SignFamily.SignFloatMany allocates %.1f per call", a)
	}
}
