package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// candidateLister is the bucket-listing surface of both schemes.
type candidateLister interface {
	biasBatchQuerier
	SeedKeys(k, limit int, dst []int) ([]int, bool)
	Candidates(tau float64, limit int, dst []int) ([]int, bool)
}

// fedCandidateCases returns every estimator variant fed a biased
// stream with planted outliers, with every key's QueryBatch estimate.
func fedCandidateCases(t *testing.T, seed int64) []struct {
	name string
	sk   candidateLister
	est  []float64
} {
	t.Helper()
	const n = 10000
	var cases []struct {
		name string
		sk   candidateLister
		est  []float64
	}
	for _, tc := range queryBatchCases() {
		sk := tc.mk(seed).(candidateLister)
		r := rand.New(rand.NewSource(seed + 1))
		for u := 0; u < 30000; u++ {
			sk.Update(r.Intn(n), float64(1+r.Intn(5)))
		}
		for p := 0; p < 12; p++ {
			sk.Update(r.Intn(n), float64(1000*(p+1)))
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		est := make([]float64, n)
		sk.QueryBatch(all, est)
		cases = append(cases, struct {
			name string
			sk   candidateLister
			est  []float64
		}{tc.name, sk, est})
	}
	return cases
}

// With no budget, Candidates keeps exactly the keys the range scan
// keeps over [0, n) — the same screen, reached through the heavy
// buckets instead of every key — in increasing order, after what dst
// held; and it lists nothing where the range scan must keep all.
func TestCandidatesMatchScanRange(t *testing.T) {
	const n = 10000
	for _, c := range fedCandidateCases(t, 88) {
		t.Run(c.name, func(t *testing.T) {
			beta := c.sk.Bias()
			top := 0.0
			for _, e := range c.est {
				top = max(top, math.Abs(e-beta))
			}
			idx := make([]int, n)
			out := make([]float64, n)
			for _, tau := range []float64{top / 2, top / 10, math.Nextafter(top/3, 0), math.Abs(c.est[7] - beta), 0, -1, math.Inf(1), math.NaN()} {
				m := c.sk.ScanRange(0, n, tau, idx, out)
				got, ok := c.sk.Candidates(tau, math.MaxInt, []int{-7})
				if got[0] != -7 {
					t.Fatalf("tau %v: Candidates overwrote dst", tau)
				}
				if !ok {
					if len(got) != 1 || m != n {
						t.Fatalf("tau %v: Candidates refused (%d keys) where the range scan kept %d of %d", tau, len(got)-1, m, n)
					}
					continue
				}
				if !slices.Equal(got[1:], idx[:m]) {
					t.Fatalf("tau %v: Candidates kept %d keys, the range scan %d", tau, len(got)-1, m)
				}
			}
		})
	}
}

// A budget too small for the heavy buckets' keys refuses the listing
// and appends nothing; one large enough answers.
func TestCandidatesLimit(t *testing.T) {
	for _, c := range fedCandidateCases(t, 89) {
		beta := c.sk.Bias()
		top := 0.0
		for _, e := range c.est {
			top = max(top, math.Abs(e-beta))
		}
		if got, ok := c.sk.Candidates(top/2, 0, nil); ok || len(got) != 0 {
			t.Fatalf("%s: limit 0 listed %d keys, ok %v", c.name, len(got), ok)
		}
		if got, ok := c.sk.Candidates(top/2, len(c.est), nil); !ok || len(got) == 0 {
			t.Fatalf("%s: a budget of every key listed %d keys, ok %v", c.name, len(got), ok)
		}
	}
}

// SeedKeys lists each key of row 0's k heaviest buckets once, and no
// other: no bucket left out is heavier than one listed, a NaN
// heaviest.
func TestSeedKeysListHeaviestBuckets(t *testing.T) {
	const n = 10000
	for _, c := range fedCandidateCases(t, 90) {
		l := c.sk.(*SR)
		beta := l.Bias()
		row, sum := l.rows[0], l.b.columnSums()[0]
		row[5] = math.NaN() // a NaN bucket is the heaviest
		mag := func(b int) float64 {
			m := math.Abs(row[b] - beta*sum[b])
			if m != m {
				return math.Inf(1)
			}
			return m
		}
		for _, k := range []int{0, 1, 3, 16, len(row) + 2} {
			keys, ok := l.SeedKeys(k, 2*n, nil)
			if !ok {
				t.Fatalf("%s k=%d: SeedKeys refused a budget of every key", c.name, k)
			}
			chosen := map[int]bool{}
			seen := map[int]bool{}
			for _, x := range keys {
				if x < 0 || x >= n || seen[x] {
					t.Fatalf("%s k=%d: key %d out of range or repeated", c.name, k, x)
				}
				seen[x] = true
				chosen[l.b.hash.Hash(0, uint64(x))] = true
			}
			if k > 0 && !chosen[5] {
				t.Fatalf("%s k=%d: the NaN bucket was left out", c.name, k)
			}
			lightest := math.Inf(1)
			for b := range chosen {
				lightest = min(lightest, mag(b))
			}
			want := 0
			for x := 0; x < n; x++ {
				b := l.b.hash.Hash(0, uint64(x))
				if chosen[b] {
					want++
				} else if mag(b) > lightest {
					t.Fatalf("%s k=%d: bucket %d (%v) left out, lighter %v listed", c.name, k, b, mag(b), lightest)
				}
			}
			if len(keys) != want || len(chosen) > k {
				t.Fatalf("%s k=%d: listed %d keys of %d buckets, want %d keys", c.name, k, len(keys), len(chosen), want)
			}
		}
		if keys, ok := l.SeedKeys(16, 0, []int{1}); ok || len(keys) != 1 {
			t.Fatalf("%s: limit 0 listed %v, ok %v", c.name, keys, ok)
		}
	}
}

// Concurrent first listings on a quiescent sketch are safe while its
// lazy read state is still cold — the basis's ψ and key listings, and
// for ℓ2-S/R the Bias-Heap's order: every reader lists what a twin
// replica lists read alone. Exercised under -race.
func TestConcurrentColdCandidates(t *testing.T) {
	const n, readers = 10000, 4
	feed := func(sk candidateLister) {
		r := rand.New(rand.NewSource(93))
		for u := 0; u < 10000; u++ {
			sk.Update(r.Intn(n), float64(r.Intn(5)))
		}
		sk.Update(77, 1e4)
	}
	for _, tc := range queryBatchCases() {
		t.Run(tc.name, func(t *testing.T) {
			twin, sk := tc.mk(94).(candidateLister), tc.mk(94).(candidateLister)
			feed(twin)
			feed(sk)
			want, _ := twin.Candidates(5000, n, nil)
			wantSeeds, _ := twin.SeedKeys(4, n, nil)
			done := make(chan [2][]int, readers)
			for g := 0; g < readers; g++ {
				go func() {
					got, _ := sk.Candidates(5000, n, nil)
					seeds, _ := sk.SeedKeys(4, n, nil)
					done <- [2][]int{got, seeds}
				}()
			}
			for g := 0; g < readers; g++ {
				got := <-done
				if !slices.Equal(got[0], want) || !slices.Equal(got[1], wantSeeds) {
					t.Fatalf("cold readers listed %v and seeds %v, the twin %v and %v", got[0], got[1], want, wantSeeds)
				}
			}
		})
	}
}
