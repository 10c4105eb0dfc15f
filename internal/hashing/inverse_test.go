package hashing

import (
	"math/rand"
	"slices"
	"testing"
)

// checkBucketKeys lists every bucket of h over [0, n) and checks that
// each key of [0, n) appears exactly once, in the bucket Hash puts it
// in: the listing equals a brute-force scan of Hash.
func checkBucketKeys(t *testing.T, h Pairwise, n int) {
	t.Helper()
	inv := h.Inverse(n)
	seen := make([]bool, n)
	total := 0
	var keys []int
	for j := 0; j < int(h.Range); j++ {
		keys = inv.BucketKeys(keys[:0], j)
		for _, x := range keys {
			if x < 0 || x >= n {
				t.Fatalf("a=%d b=%d s=%d n=%d: bucket %d lists key %d outside [0, n)", h.A, h.B, h.Range, n, j, x)
			}
			if got := h.Hash(uint64(x)); got != j {
				t.Fatalf("a=%d b=%d s=%d n=%d: bucket %d lists key %d, which hashes to %d", h.A, h.B, h.Range, n, j, x, got)
			}
			if seen[x] {
				t.Fatalf("a=%d b=%d s=%d n=%d: key %d listed twice", h.A, h.B, h.Range, n, x)
			}
			seen[x] = true
		}
		total += len(keys)
	}
	if total != n {
		t.Fatalf("a=%d b=%d s=%d n=%d: listed %d keys, want %d", h.A, h.B, h.Range, n, total, n)
	}
}

// The listing equals a brute-force scan of Hash at tiny, odd and
// power-of-two widths, from one key to 2^20.
func TestBucketKeysMatchHash(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	widths := []int{1, 2, 3, 7, 1000, 1024, 4096, 4099, 65536}
	dims := []int{1, 2, 3, 100, 4097, 1 << 16, 1 << 20}
	for _, s := range widths {
		for _, n := range dims {
			checkBucketKeys(t, must(NewPairwise(r, s)), n)
		}
	}
}

// Extreme coefficients: A = 1 and A = p − 1 make α = ±s, B at both
// ends, and an empty key set lists nothing.
func TestBucketKeysExtremeCoefficients(t *testing.T) {
	const p = MersennePrime
	for _, s := range []uint64{1, 2, 3, 4096, 4099} {
		for _, c := range []struct{ a, b uint64 }{{1, 0}, {1, p - 1}, {p - 1, 0}, {p - 1, p - 1}, {2, 12345}} {
			for _, n := range []int{0, 1, 2, 5000} {
				checkBucketKeys(t, Pairwise{A: c.a, B: c.b, Range: s}, n)
			}
		}
	}
}

func TestBucketKeysRejectsBadInput(t *testing.T) {
	h := Pairwise{A: 3, B: 5, Range: 16}
	for _, n := range []int{-1, int(MersennePrime) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inverse(%d) should panic", n)
				}
			}()
			h.Inverse(n)
		}()
	}
	inv := h.Inverse(100)
	for _, j := range []int{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BucketKeys(%d) should panic", j)
				}
			}()
			inv.BucketKeys(nil, j)
		}()
	}
}

// leastInRange is the least u, checked by stepping u up from 0 over
// small moduli.
func TestLeastInRangeBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 3000; trial++ {
		m := uint64(2 + r.Intn(500))
		a := uint64(r.Int63n(int64(m)))
		l := uint64(r.Int63n(int64(m)))
		rr := l + uint64(r.Int63n(int64(m-l)))
		want, wantOK := uint64(0), false
		for u := uint64(0); u < m; u++ {
			if v := a * u % m; l <= v && v <= rr {
				want, wantOK = u, true
				break
			}
		}
		if got, ok := leastInRange(a, m, l, rr); got != want || ok != wantOK {
			t.Fatalf("leastInRange(%d, %d, %d, %d) = %d, %v; want %d, %v", a, m, l, rr, got, ok, want, wantOK)
		}
	}
}

// FuzzBucketKeys checks the listing of one bucket against a scan of
// Hash over [0, n), for any coefficients, a width up to 2^32 and up to
// 2^16 keys: a drawn bucket, often empty at wide ranges, and the
// bucket of a drawn key, never empty.
func FuzzBucketKeys(f *testing.F) {
	f.Add(uint64(3), uint64(5), uint32(4095), uint32(1<<16), uint32(7), uint32(100))
	f.Add(uint64(1), uint64(0), uint32(0), uint32(1), uint32(0), uint32(0))
	f.Add(MersennePrime-2, MersennePrime-1, uint32(4098), uint32(4097), uint32(4000), uint32(4096))
	f.Fuzz(func(t *testing.T, a, b uint64, sRaw, nRaw, jRaw, keyRaw uint32) {
		h := Pairwise{A: 1 + a%(MersennePrime-1), B: b % MersennePrime, Range: 1 + uint64(sRaw)}
		n := int(nRaw % (1<<16 + 1))
		inv := h.Inverse(n)
		buckets := []int{int(uint64(jRaw) % h.Range)}
		if n > 0 {
			buckets = append(buckets, h.Hash(uint64(int(keyRaw)%n)))
		}
		for _, j := range buckets {
			var want []int
			for x := 0; x < n; x++ {
				if h.Hash(uint64(x)) == j {
					want = append(want, x)
				}
			}
			got := inv.BucketKeys(nil, j)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("a=%d b=%d s=%d n=%d bucket %d: listed %v, want %v", h.A, h.B, h.Range, n, j, got, want)
			}
		}
	})
}

func BenchmarkBucketKeys(b *testing.B) {
	h := must(NewPairwise(rand.New(rand.NewSource(1)), 4096))
	inv := h.Inverse(1 << 20)
	keys := make([]int, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys = inv.BucketKeys(keys[:0], i%4096)
	}
}
