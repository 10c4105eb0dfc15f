package hashing

import (
	"fmt"
	"math/bits"
)

// Inverse lists the keys of [0, n) that one Pairwise puts in a bucket,
// without a scan. The hash sends x to bucket j exactly when
// v = (A·x + B) mod p equals j + s·u for some u < U_j =
// ⌊(p−1−j)/s⌋ + 1, where s is the Range. A is invertible mod p, so
// bucket j holds the keys x_u = (c_j + α·u) mod p with
// c_j = A⁻¹·(j − B) and α = A⁻¹·s. Listing the x_u below n is
// listing the visits of the rotation u ↦ α·u to an interval of length
// n: one Euclid-style search finds the first, and by the three-gap
// theorem each later one is one of three fixed steps away.
type Inverse struct {
	n, s, b uint64
	ainv    uint64 // A⁻¹ mod p
	alpha   uint64 // α = A⁻¹·s mod p: a key's step per step of v within a bucket
	// t1 is the least t ≥ 1 with α·t mod p in [1, n−1], and e1 that
	// value: from a key x, the next key of its bucket is x+e1, t1 steps
	// on, when that is below n. t2 is the least t ≥ 1 with α·t mod p in
	// [p−n+1, p−1], and g2 = p − α·t2 mod p: otherwise the next key is
	// x−g2 when x ≥ g2, else x+e1−g2. t1 is 0 when no key has a next.
	t1, e1, t2, g2 uint64
}

// Inverse returns the key listing of h over the keys [0, n). It costs
// a modular inverse and two Euclid-style searches, O(log p) each. It
// panics unless 0 <= n <= p.
func (h Pairwise) Inverse(n int) Inverse {
	const p = MersennePrime
	if n < 0 || uint64(n) > p {
		panic(fmt.Sprintf("hashing: Inverse over %d keys, want 0 to 2^61−1", n))
	}
	ainv := powModP(h.A, p-2) // Fermat: A^(p−2)·A ≡ 1
	v := Inverse{n: uint64(n), s: h.Range, b: h.B, ainv: ainv, alpha: mulModP(ainv, h.Range)}
	// α ≠ 0 visits every residue within p steps, so both searches
	// succeed; α = 0 (s a multiple of p) leaves every bucket one key.
	if v.n >= 2 && v.alpha != 0 {
		v.t1, _ = leastInRange(v.alpha, p, 1, v.n-1)
		v.e1 = mulModP(v.alpha, v.t1)
		v.t2, _ = leastInRange(v.alpha, p, p-v.n+1, p-1)
		v.g2 = p - mulModP(v.alpha, v.t2)
	}
	return v
}

// BucketKeys appends to dst the keys of [0, n) that the hash puts in
// bucket j, each once, in the order of their hash values, and returns
// the extended slice. It costs one O(log p) search plus O(1) per key.
// It panics unless 0 <= j < Range.
func (v Inverse) BucketKeys(dst []int, j int) []int {
	const p = MersennePrime
	if j < 0 || uint64(j) >= v.s {
		panic(fmt.Sprintf("hashing: bucket %d of a range of %d", j, v.s))
	}
	bj := uint64(j)
	if v.n == 0 || bj >= p {
		return dst
	}
	end := (p-1-bj)/v.s + 1 // U_j
	d := bj + p - v.b
	if d >= p {
		d -= p
	}
	c := mulModP(v.ainv, d) // the key of u = 0
	var u uint64
	if c >= v.n {
		// The least u with (c + α·u) mod p below n: α·u mod p in
		// [p − c, p − c + n − 1], which does not wrap since c >= n.
		var ok bool
		if u, ok = leastInRange(v.alpha, p, p-c, p-c+v.n-1); !ok {
			return dst
		}
	}
	if u >= end {
		return dst
	}
	x := affineModP(v.alpha, u, c)
	dst = append(dst, int(x))
	if v.t1 == 0 {
		return dst
	}
	for {
		switch {
		case x+v.e1 < v.n:
			x += v.e1
			u += v.t1
		case x >= v.g2:
			x -= v.g2
			u += v.t2
		default:
			x = x + v.e1 - v.g2
			u += v.t1 + v.t2
		}
		if u >= end {
			return dst
		}
		dst = append(dst, int(x))
	}
}

// Inverses returns the key listing of every row over the keys [0, n).
func (f Family) Inverses(n int) []Inverse {
	inv := make([]Inverse, len(f))
	for t, h := range f {
		inv[t] = h.Inverse(n)
	}
	return inv
}

// leastInRange returns the least u >= 0 with l <= (a·u mod m) <= r, for
// a < m <= 2^61 and l <= r < m, and whether one exists. When no
// multiple of a lands in [l, r] below m, the answer wraps past m some
// y >= 1 times, and a·u − m·y lies in [l, r] exactly when (m·y) mod a
// lies in [a − r mod a, a − l mod a]: the same problem one step down
// Euclid's algorithm, whose least y gives the least u. The products
// m·y can pass 2^64, so u is divided out in 128 bits.
func leastInRange(a, m, l, r uint64) (uint64, bool) {
	if l == 0 {
		return 0, true
	}
	if a == 0 {
		return 0, false
	}
	if k := (l + a - 1) / a; a*k <= r {
		return k, true
	}
	// No multiple of a in [l, r], so r − l < a − 1 and 1 <= l mod a <=
	// r mod a: the interval below stays inside [1, a−1].
	y, ok := leastInRange(m%a, a, a-r%a, a-l%a)
	if !ok {
		return 0, false
	}
	hi, lo := bits.Mul64(m, y)
	lo, carry := bits.Add64(lo, l+a-1, 0)
	u, _ := bits.Div64(hi+carry, lo, a) // ⌈(l + m·y)/a⌉; y < a keeps it below 2^64
	// a·u − m·y lies in [l, l+a), so its wrapped 64-bit difference is exact.
	if a*u-m*y > r {
		return 0, false
	}
	return u, true
}

// powModP returns a^e mod p by square-and-multiply.
func powModP(a, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulModP(r, a)
		}
		a = mulModP(a, a)
	}
	return r
}
