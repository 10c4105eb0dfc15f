// Package hashing provides the k-wise independent hash families used by
// every sketch in this repository.
//
// Section 4.4 of the paper observes that all analyses only use second
// moments of the bucket contents, so 2-wise independent hash functions
// suffice and each costs O(1) words to store. We implement the classic
// Carter–Wegman construction over the Mersenne prime p = 2^61 - 1, which
// gives exact pairwise independence over [p], plus a degree-3 polynomial
// variant (4-wise) used by the hashing ablation benchmark. A pairwise
// hash is invertible, so Inverse lists the keys of one bucket without
// a scan.
package hashing

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// oneBits is the IEEE-754 encoding of +1.0. ORing a hash bit into the
// sign position yields ±1.0 without a data-dependent branch — random
// signs are coin flips, so an if/else mispredicts half the time.
const oneBits = uint64(0x3FF0000000000000)

// ErrRange is wrapped by every hash constructor handed a non-positive
// codomain size. Check with errors.Is(err, hashing.ErrRange).
var ErrRange = errors.New("hashing: range must be positive")

// MersennePrime is 2^61 - 1, the field size for all polynomial hash
// families in this package. Universe elements must be < MersennePrime.
const MersennePrime uint64 = (1 << 61) - 1

// mulModP returns (a*b) mod (2^61-1) using a 128-bit intermediate
// product and Mersenne reduction.
func mulModP(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo. Since 2^61 ≡ 1 (mod p):
	// result ≡ hi*8 + lo (mod p), but hi*8 may overflow; split lo too.
	r := (lo & MersennePrime) + (lo >> 61) + hi*8
	r = (r & MersennePrime) + (r >> 61)
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}

// affineModP returns (a·x + b) mod (2^61-1) for a, b < 2^61-1 and
// x < 2^63, which holds every key: it folds the 128-bit product as
// mulModP does, with b added before the last fold, so one conditional
// subtraction ends it. Fused, it keeps Hash within the compiler's
// inlining budget.
func affineModP(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	// hi < 2^60, so r < 2^64 and r >> 61 <= 6 below.
	r := (lo & MersennePrime) + (lo >> 61) + hi*8 + b
	r = (r & MersennePrime) + (r >> 61)
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}

// reduce returns v mod s: by a mask when s is a power of two, where
// v & (s−1) equals v % s exactly without a division.
func reduce(v, s uint64) uint64 {
	if s&(s-1) == 0 {
		return v & (s - 1)
	}
	return v % s
}

// Pairwise is a 2-wise independent hash function from [2^61-1] into
// [Range). The zero value is unusable; construct with NewPairwise.
type Pairwise struct {
	A, B  uint64 // random coefficients, A != 0
	Range uint64 // codomain size
}

// NewPairwise draws a random pairwise hash with codomain [0, rng).
// A non-positive range returns an ErrRange-wrapped error.
func NewPairwise(r *rand.Rand, rang int) (Pairwise, error) {
	if rang <= 0 {
		return Pairwise{}, fmt.Errorf("%w: NewPairwise got %d", ErrRange, rang)
	}
	a := uint64(r.Int63n(int64(MersennePrime-1))) + 1 // a in [1, p)
	b := uint64(r.Int63n(int64(MersennePrime)))       // b in [0, p)
	return Pairwise{A: a, B: b, Range: uint64(rang)}, nil
}

// Hash maps x into [0, Range), with a mask instead of a division when
// Range is a power of two.
func (h Pairwise) Hash(x uint64) int { return int(reduce(affineModP(h.A, x, h.B), h.Range)) }

// HashMany maps each coordinate xs[j] into [0, Range), writing the
// result into out[j]. It is the batch entry point of the sketches'
// row-major UpdateBatch and QueryBatch: the Carter–Wegman coefficients
// load once per row instead of once per stream element (or per point
// query), the bounds check on out is hoisted out of the loop, and so
// is Hash's choice between the mask and the division.
func (h Pairwise) HashMany(xs []int, out []int) {
	if len(xs) == 0 {
		return
	}
	a, b, rng := h.A, h.B, h.Range
	out = out[:len(xs)]
	if rng&(rng-1) == 0 {
		mask := rng - 1
		for j, x := range xs {
			out[j] = int(affineModP(a, uint64(x), b) & mask)
		}
		return
	}
	for j, x := range xs {
		out[j] = int(affineModP(a, uint64(x), b) % rng)
	}
}

// HashRange writes Hash(lo+j) into out[j] for every j — the kernel of
// scans over a run of consecutive keys. From one key to the next,
// v = (a·x + b) mod p steps by adding a instead of multiplying, and
// r = v mod Range steps with it: by a mod Range, or by (a − p) mod
// Range when v wraps past p. So one division starts the run, and every
// value is exactly Hash's.
//
//sketch:hotpath
func (h Pairwise) HashRange(lo uint64, out []int) {
	if len(out) == 0 {
		return
	}
	a, rng := h.A, h.Range
	v := affineModP(a, lo, h.B)
	r := v % rng
	step := a % rng
	wrapStep := (step + rng - MersennePrime%rng) % rng
	for j := range out {
		out[j] = int(r)
		d := step
		if v += a; v >= MersennePrime {
			v -= MersennePrime
			d = wrapStep
		}
		if r += d; r >= rng {
			r -= rng
		}
	}
}

// Sign is a 2-wise independent random sign function r: [n] -> {-1,+1}
// (Definition 2 of the paper uses these in the CS-matrix).
type Sign struct {
	A, B uint64
}

// NewSign draws a random pairwise sign function.
func NewSign(r *rand.Rand) Sign {
	a := uint64(r.Int63n(int64(MersennePrime-1))) + 1
	b := uint64(r.Int63n(int64(MersennePrime)))
	return Sign{A: a, B: b}
}

// Sign returns +1 or -1 for x.
func (s Sign) Sign(x uint64) int {
	v := affineModP(s.A, x, s.B)
	if v&1 == 0 {
		return 1
	}
	return -1
}

// SignFloat returns Sign(x) as a float64, avoiding a conversion at
// call sites on the sketch hot path.
func (s Sign) SignFloat(x uint64) float64 {
	v := affineModP(s.A, x, s.B)
	if v&1 == 0 {
		return 1
	}
	return -1
}

// SignFloatMany writes SignFloat(xs[j]) into out[j] for every j — the
// batch companion of HashMany for the Count-Sketch rows, on both the
// ingestion (UpdateBatch) and query (QueryBatch) sides.
func (s Sign) SignFloatMany(xs []int, out []float64) {
	if len(xs) == 0 {
		return
	}
	a, b := s.A, s.B
	out = out[:len(xs)]
	for j, x := range xs {
		v := affineModP(a, uint64(x), b) & 1
		out[j] = math.Float64frombits(oneBits | v<<63)
	}
}

// FourWise is a 4-wise independent hash function (degree-3 polynomial
// over GF(2^61-1)) into [Range). It is used only by the hashing
// ablation; the paper's algorithms need just pairwise independence.
type FourWise struct {
	C     [4]uint64 // polynomial coefficients, C[3] != 0
	Range uint64
}

// NewFourWise draws a random 4-wise independent hash with codomain
// [0, rng). A non-positive range returns an ErrRange-wrapped error.
func NewFourWise(r *rand.Rand, rang int) (FourWise, error) {
	if rang <= 0 {
		return FourWise{}, fmt.Errorf("%w: NewFourWise got %d", ErrRange, rang)
	}
	var c [4]uint64
	for i := 0; i < 3; i++ {
		c[i] = uint64(r.Int63n(int64(MersennePrime)))
	}
	c[3] = uint64(r.Int63n(int64(MersennePrime-1))) + 1
	return FourWise{C: c, Range: uint64(rang)}, nil
}

// Hash maps x into [0, Range) by Horner evaluation of the polynomial.
func (h FourWise) Hash(x uint64) int {
	v := h.C[3]
	for i := 2; i >= 0; i-- {
		v = affineModP(v, x, h.C[i])
	}
	return int(v % h.Range)
}

// Family bundles d independent pairwise hash functions with a common
// codomain, as used for the d rows of every sketch (h_1..h_d in
// Theorems 1 and 2). Member t is row t's function.
type Family []Pairwise

// NewFamily draws d independent pairwise hashes into [0, rng).
// A non-positive range returns an ErrRange-wrapped error.
func NewFamily(r *rand.Rand, d, rang int) (Family, error) {
	f := make(Family, d)
	for i := range f {
		h, err := NewPairwise(r, rang)
		if err != nil {
			return nil, err
		}
		f[i] = h
	}
	return f, nil
}

// Hash maps x into [0, Range) with the family's row-t function.
func (f Family) Hash(t int, x uint64) int { return f[t].Hash(x) }

// HashMany maps each coordinate xs[j] into [0, Range) with the
// family's row-t function, writing results into out[j] — the batched
// row kernel of UpdateBatch/QueryBatch.
//
//sketch:hotpath
func (f Family) HashMany(t int, xs []int, out []int) { f[t].HashMany(xs, out) }

// HashRange writes the family's row-t hash of lo+j into out[j] for
// every j — the row kernel of range scans.
//
//sketch:hotpath
func (f Family) HashRange(t int, lo uint64, out []int) { f[t].HashRange(lo, out) }

// Equal reports whether two families draw the same functions — the
// shared-randomness precondition for merging sketches.
func (f Family) Equal(o Family) bool { return slices.Equal(f, o) }

// SignFamily bundles d independent pairwise sign functions (r_1..r_d
// in Theorem 2). Member t is row t's sign function.
type SignFamily []Sign

// NewSignFamily draws d independent pairwise sign functions.
func NewSignFamily(r *rand.Rand, d int) SignFamily {
	f := make(SignFamily, d)
	for i := range f {
		f[i] = NewSign(r)
	}
	return f
}

// SignFloat returns the row-t sign of x as a float64.
func (f SignFamily) SignFloat(t int, x uint64) float64 { return f[t].SignFloat(x) }

// SignFloatMany writes the row-t sign of xs[j] into out[j] for every
// j — the batched sign kernel.
//
//sketch:hotpath
func (f SignFamily) SignFloatMany(t int, xs []int, out []float64) { f[t].SignFloatMany(xs, out) }

// Equal reports whether two sign families draw the same functions.
func (f SignFamily) Equal(o SignFamily) bool { return slices.Equal(f, o) }
