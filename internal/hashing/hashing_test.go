package hashing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// must unwraps a constructor result; the tests construct with known-good
// ranges, so an error here is a test bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestMulModPSmall(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 1, 1},
		{2, 3, 6},
		{MersennePrime - 1, 1, MersennePrime - 1},
		{MersennePrime - 1, 2, MersennePrime - 2},
	}
	for _, c := range cases {
		if got := mulModP(c.a, c.b); got != c.want {
			t.Errorf("mulModP(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulModPAgainstBigArithmetic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a := uint64(r.Int63n(int64(MersennePrime)))
		b := uint64(r.Int63n(int64(MersennePrime)))
		// Reference via 128-bit math using math/bits through repeated
		// shift-add (slow but obviously correct for the test).
		want := slowMulMod(a, b)
		if got := mulModP(a, b); got != want {
			t.Fatalf("mulModP(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

// slowMulMod computes (a*b) mod p by binary decomposition of b.
func slowMulMod(a, b uint64) uint64 {
	var res uint64
	a %= MersennePrime
	for b > 0 {
		if b&1 == 1 {
			res = addModP(res, a)
		}
		a = addModP(a, a)
		b >>= 1
	}
	return res
}

func TestPairwiseRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, rang := range []int{1, 2, 7, 100, 1 << 20} {
		h := must(NewPairwise(r, rang))
		for x := uint64(0); x < 1000; x++ {
			v := h.Hash(x)
			if v < 0 || v >= rang {
				t.Fatalf("Hash(%d) = %d out of range [0,%d)", x, v, rang)
			}
		}
	}
}

// TestConstructorsRejectBadRange is the table-driven option-validation
// suite: every hash constructor must return an ErrRange-wrapped typed
// error (never panic) on a non-positive codomain, per the typederr
// contract.
func TestConstructorsRejectBadRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cases := []struct {
		name string
		rang int
		ctor func(rang int) error
	}{
		{"NewPairwise/zero", 0, func(g int) error { _, err := NewPairwise(r, g); return err }},
		{"NewPairwise/negative", -1, func(g int) error { _, err := NewPairwise(r, g); return err }},
		{"NewFourWise/zero", 0, func(g int) error { _, err := NewFourWise(r, g); return err }},
		{"NewFourWise/negative", -7, func(g int) error { _, err := NewFourWise(r, g); return err }},
		{"NewFamily/zero", 0, func(g int) error { _, err := NewFamily(r, 4, g); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.ctor(c.rang)
			if err == nil {
				t.Fatalf("range %d: want error, got nil", c.rang)
			}
			if !errors.Is(err, ErrRange) {
				t.Fatalf("range %d: error %v is not ErrRange", c.rang, err)
			}
		})
	}
	// Good ranges must not error.
	if _, err := NewPairwise(r, 1); err != nil {
		t.Fatalf("NewPairwise(1): %v", err)
	}
}

// TestPairwiseUniformity checks that bucket loads are near-uniform:
// hashing n items into s buckets should give each bucket close to n/s.
func TestPairwiseUniformity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n, s = 200000, 64
	counts := make([]int, s)
	h := must(NewPairwise(r, s))
	for x := 0; x < n; x++ {
		counts[h.Hash(uint64(x))]++
	}
	want := float64(n) / s
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.25*want {
			t.Errorf("bucket %d load %d deviates more than 25%% from %f", i, c, want)
		}
	}
}

// TestPairwiseCollisionProbability estimates Pr[h(x)=h(y)] over random
// draws of h for fixed x != y; pairwise independence implies it is
// ~1/s (within sampling noise).
func TestPairwiseCollisionProbability(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const trials, s = 40000, 16
	coll := 0
	for i := 0; i < trials; i++ {
		h := must(NewPairwise(r, s))
		if h.Hash(12345) == h.Hash(67890) {
			coll++
		}
	}
	p := float64(coll) / trials
	if math.Abs(p-1.0/s) > 0.015 {
		t.Errorf("collision probability %f, want ~%f", p, 1.0/s)
	}
}

// TestSignBalance checks that a pairwise sign function is balanced and
// that products of signs at distinct points are uncorrelated.
func TestSignBalance(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const trials = 40000
	sum := 0
	prodSum := 0
	for i := 0; i < trials; i++ {
		sg := NewSign(r)
		sum += sg.Sign(42)
		prodSum += sg.Sign(42) * sg.Sign(43)
	}
	if math.Abs(float64(sum)/trials) > 0.02 {
		t.Errorf("E[sign] = %f, want ~0", float64(sum)/trials)
	}
	if math.Abs(float64(prodSum)/trials) > 0.02 {
		t.Errorf("E[sign(x)sign(y)] = %f, want ~0", float64(prodSum)/trials)
	}
}

func TestSignFloatMatchesSign(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sg := NewSign(r)
	for x := uint64(0); x < 10000; x++ {
		if float64(sg.Sign(x)) != sg.SignFloat(x) {
			t.Fatalf("SignFloat mismatch at %d", x)
		}
	}
}

func TestFourWiseRange(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	h := must(NewFourWise(r, 97))
	for x := uint64(0); x < 5000; x++ {
		v := h.Hash(x)
		if v < 0 || v >= 97 {
			t.Fatalf("FourWise.Hash(%d) = %d out of range", x, v)
		}
	}
}

func TestFourWiseUniformity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const n, s = 200000, 64
	counts := make([]int, s)
	h := must(NewFourWise(r, s))
	for x := 0; x < n; x++ {
		counts[h.Hash(uint64(x))]++
	}
	want := float64(n) / s
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.25*want {
			t.Errorf("bucket %d load %d deviates more than 25%% from %f", i, c, want)
		}
	}
}

func TestFamilyDepth(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	f := must(NewFamily(r, 9, 128))
	if len(f) != 9 {
		t.Fatalf("Family depth = %d, want 9", len(f))
	}
	sf := NewSignFamily(r, 9)
	if len(sf) != 9 {
		t.Fatalf("SignFamily depth = %d, want 9", len(sf))
	}
}

// TestFamilyIndependentMembers verifies members of a family are
// distinct functions (no accidental seed reuse).
func TestFamilyIndependentMembers(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := must(NewFamily(r, 8, 1<<20))
	for i := range f {
		for j := i + 1; j < len(f); j++ {
			if f[i] == f[j] {
				t.Fatalf("family members %d and %d identical", i, j)
			}
		}
	}
}

// Property: Hash is deterministic — the same function applied twice to
// the same input yields the same value.
func TestHashDeterministicProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	h := must(NewPairwise(r, 1000))
	f := func(x uint64) bool {
		x %= MersennePrime
		return h.Hash(x) == h.Hash(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mulModP is commutative.
func TestMulModPCommutativeProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= MersennePrime
		b %= MersennePrime
		return mulModP(a, b) == mulModP(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: mulModP distributes over addModP.
func TestMulModPDistributiveProperty(t *testing.T) {
	f := func(a, b, c uint64) bool {
		a %= MersennePrime
		b %= MersennePrime
		c %= MersennePrime
		return mulModP(a, addModP(b, c)) == addModP(mulModP(a, b), mulModP(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPairwiseHash(b *testing.B) {
	h := must(NewPairwise(rand.New(rand.NewSource(1)), 1<<16))
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = h.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkFourWiseHash(b *testing.B) {
	h := must(NewFourWise(rand.New(rand.NewSource(1)), 1<<16))
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = h.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkSign(b *testing.B) {
	s := NewSign(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Sign(uint64(i))
	}
	_ = sink
}

// TestFamilyDispatch checks that Family/SignFamily route row t to
// member t on both the point and the batched entry points, and that
// Equal distinguishes independently drawn families.
func TestFamilyDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	const d, s = 5, 1024
	pf := must(NewFamily(r, d, s))
	xs := []int{0, 1, 17, 9999, 123456}
	out := make([]int, len(xs))
	for t0 := 0; t0 < d; t0++ {
		pf.HashMany(t0, xs, out)
		for j, x := range xs {
			if out[j] != pf[t0].Hash(uint64(x)) || out[j] != pf.Hash(t0, uint64(x)) {
				t.Fatalf("family dispatch mismatch at row %d elem %d", t0, j)
			}
		}
	}
	if !pf.Equal(pf) {
		t.Fatal("family not Equal to itself")
	}
	if pf.Equal(must(NewFamily(r, d, s))) || pf.Equal(pf[:d-1]) {
		t.Fatal("distinct families compare Equal")
	}

	ps := NewSignFamily(r, d)
	fout := make([]float64, len(xs))
	for t0 := 0; t0 < d; t0++ {
		ps.SignFloatMany(t0, xs, fout)
		for j, x := range xs {
			if fout[j] != ps[t0].SignFloat(uint64(x)) || fout[j] != ps.SignFloat(t0, uint64(x)) {
				t.Fatalf("sign dispatch mismatch at row %d elem %d", t0, j)
			}
		}
	}
	if !ps.Equal(ps) {
		t.Fatal("sign family not Equal to itself")
	}
	if ps.Equal(NewSignFamily(r, d)) {
		t.Fatal("independently drawn sign families compare Equal")
	}
}

// HashMany must agree with element-wise Hash for every element — the
// batch path is an optimization, never a different function.
func TestHashManyMatchesHash(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for trial := 0; trial < 20; trial++ {
		h := must(NewPairwise(r, 1+r.Intn(5000)))
		xs := make([]int, 1+r.Intn(300))
		for j := range xs {
			xs[j] = r.Intn(1 << 20)
		}
		out := make([]int, len(xs))
		h.HashMany(xs, out)
		for j, x := range xs {
			if want := h.Hash(uint64(x)); out[j] != want {
				t.Fatalf("trial %d: HashMany[%d] = %d, Hash = %d", trial, j, out[j], want)
			}
		}
	}
	// Empty batch is a no-op, not a panic.
	must(NewPairwise(r, 16)).HashMany(nil, nil)
}

// HashRange must agree with Hash on every key of the run: stepping by
// a is the same function as multiplying, at any length and offset.
func TestHashRangeMatchesHash(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 3, 1000, 4096, 1 << 16} {
		for trial := 0; trial < 4; trial++ {
			f := must(NewFamily(r, 2, 1+r.Intn(1<<17)))
			lo := uint64(r.Int63n(1 << 26))
			if trial == 0 {
				lo = 0
			}
			out := make([]int, n)
			f.HashRange(1, lo, out)
			for j, v := range out {
				if want := f.Hash(1, lo+uint64(j)); v != want {
					t.Fatalf("n=%d lo=%d: HashRange[%d] = %d, Hash = %d", n, lo, j, v, want)
				}
			}
		}
	}
	// The remainder steps by a mod Range, or by (a − p) mod Range on a
	// wrap past p: the largest step (every key wraps), the smallest
	// (a wrap right after the first key), and ranges that divide p + 1,
	// share no factor with it, or exceed 32 bits.
	const p = MersennePrime
	for _, rng := range []uint64{1, 2, 4096, 1<<16 + 1, 1_000_003, 1<<32 + 5} {
		for _, c := range []struct{ a, b, lo uint64 }{
			{p - 1, 0, 0},
			{p - 1, 12345, 7},
			{1, p - 1, 0},
			{1, p - 2, 1 << 20},
			{r.Uint64() % p, r.Uint64() % p, uint64(r.Int63n(1 << 40))},
		} {
			if c.a == 0 {
				c.a = 1
			}
			h := Pairwise{A: c.a, B: c.b, Range: rng}
			out := make([]int, 3000)
			h.HashRange(c.lo, out)
			for j, v := range out {
				if want := h.Hash(c.lo + uint64(j)); v != want {
					t.Fatalf("a=%d b=%d range=%d lo=%d: HashRange[%d] = %d, Hash = %d", c.a, c.b, rng, c.lo, j, v, want)
				}
			}
		}
	}
	// An empty run is a no-op, not a panic.
	must(NewPairwise(r, 16)).HashRange(5, nil)
}

func TestSignFloatManyMatchesSignFloat(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		s := NewSign(r)
		xs := make([]int, 1+r.Intn(300))
		for j := range xs {
			xs[j] = r.Intn(1 << 20)
		}
		out := make([]float64, len(xs))
		s.SignFloatMany(xs, out)
		for j, x := range xs {
			if want := s.SignFloat(uint64(x)); out[j] != want {
				t.Fatalf("trial %d: SignFloatMany[%d] = %f, SignFloat = %f", trial, j, out[j], want)
			}
		}
	}
	NewSign(r).SignFloatMany(nil, nil)
}

func BenchmarkPairwiseHashMany(b *testing.B) {
	h := must(NewPairwise(rand.New(rand.NewSource(1)), 4096))
	xs := make([]int, 1024)
	for j := range xs {
		xs[j] = j * 31
	}
	out := make([]int, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.HashMany(xs, out)
	}
}

func BenchmarkPairwiseHashRange(b *testing.B) {
	h := must(NewPairwise(rand.New(rand.NewSource(1)), 4096))
	out := make([]int, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.HashRange(uint64(i)<<10, out)
	}
}
