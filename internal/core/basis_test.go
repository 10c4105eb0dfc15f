package core

import (
	"math"
	"math/rand"
	"testing"
)

// π must count every coordinate exactly once per row (columns of a
// CM-matrix each have exactly one 1), and replicas of one basis share
// one π, counted once.
func TestColumnCountsSumToN(t *testing.T) {
	b := NewL1Basis(Config{N: 5000, K: 16, Depth: 4}, rand.New(rand.NewSource(1)))
	for tr, pi := range b.columnSums() {
		if len(pi) != 64 {
			t.Fatalf("row %d: len(pi) = %d, want 64", tr, len(pi))
		}
		var sum float64
		for _, v := range pi {
			sum += v
		}
		if sum != 5000 {
			t.Errorf("row %d: sum(pi) = %f, want 5000", tr, sum)
		}
	}
	x, y := b.New(), b.New()
	x.Query(0)
	y.Query(0)
	if x.b != y.b || &x.b.columnSums()[0][0] != &b.columnSums()[0][0] {
		t.Error("replicas of one basis must share one π")
	}
}

// π must agree with the basis's row hashes: coordinate i lands in
// bucket h_t(i), and that bucket's π counts it.
func TestColumnCountsMatchBucketIndex(t *testing.T) {
	b := NewL1Basis(Config{N: 300, K: 4, Depth: 3}, rand.New(rand.NewSource(2)))
	for tr, pi := range b.columnSums() {
		counts := make([]float64, len(pi))
		for i := 0; i < 300; i++ {
			counts[b.hash.Hash(tr, uint64(i))]++
		}
		for bk := range counts {
			if counts[bk] != pi[bk] {
				t.Fatalf("row %d bucket %d: recount %f != pi %f", tr, bk, counts[bk], pi[bk])
			}
		}
	}
}

// Sketching the all-ones vector must produce exactly π in every CM row
// of a replica: Π(h)·1 = π by definition.
func TestColumnCountsViaAllOnes(t *testing.T) {
	const n = 1000
	l := NewL1SR(Config{N: n, K: 8, Depth: 5}, rand.New(rand.NewSource(3)))
	for i := 0; i < n; i++ {
		l.Update(i, 1)
	}
	for tr, pi := range l.b.columnSums() {
		for bk, want := range pi {
			if got := l.rows[tr][bk]; got != want {
				t.Fatalf("row %d bucket %d: Π·1 = %f != π = %f", tr, bk, got, want)
			}
		}
	}
}

// Likewise Ψ(h,r)·1 = ψ for the CS rows of an ℓ2-S/R replica, and
// replicas of one basis share one ψ.
func TestSignedColumnSumsViaAllOnes(t *testing.T) {
	const n = 1000
	b := NewL2Basis(Config{N: n, K: 8, Depth: 5}, rand.New(rand.NewSource(4)))
	l := b.New()
	for i := 0; i < n; i++ {
		l.Update(i, 1)
	}
	for tr, psi := range b.columnSums() {
		if len(psi) != 32 {
			t.Fatalf("row %d: len(psi) = %d, want 32", tr, len(psi))
		}
		for bk, want := range psi {
			if got := l.rows[tr][bk]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("row %d bucket %d: Ψ·1 = %f != ψ = %f", tr, bk, got, want)
			}
		}
	}
	other := b.New()
	other.Query(0)
	if &other.b.columnSums()[0][0] != &b.columnSums()[0][0] {
		t.Error("replicas of one basis must share one ψ")
	}
}

// ψ must be consistent with the basis's signs and row hashes.
func TestSignedColumnSumsMatchSigns(t *testing.T) {
	b := NewL2Basis(Config{N: 500, K: 4, Depth: 3}, rand.New(rand.NewSource(5)))
	for tr, psi := range b.columnSums() {
		sums := make([]float64, len(psi))
		for i := 0; i < 500; i++ {
			s := b.signs.SignFloat(tr, uint64(i))
			if s != 1 && s != -1 {
				t.Fatalf("sign(%d,%d) = %f", tr, i, s)
			}
			sums[b.hash.Hash(tr, uint64(i))] += s
		}
		for bk := range sums {
			if sums[bk] != psi[bk] {
				t.Fatalf("row %d bucket %d: recomputed %f != psi %f", tr, bk, sums[bk], psi[bk])
			}
		}
	}
}
