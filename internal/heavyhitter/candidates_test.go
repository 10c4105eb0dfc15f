package heavyhitter

import (
	"math"
	"math/rand"
	"testing"
)

// contractSource is a vector whose key lists hold only what their
// contract requires: SeedKeys returns a fixed set of distinct keys,
// and Candidates exactly the keys whose deviation exceeds tau, so no
// NaN, whatever tau is. It counts the Candidates calls.
type contractSource struct {
	exactSketch
	seeds []int
	calls *int
}

func (c contractSource) SeedKeys(_, _ int, dst []int) ([]int, bool) {
	return append(dst, c.seeds...), true
}

func (c contractSource) Candidates(tau float64, _ int, dst []int) ([]int, bool) {
	*c.calls++
	for i, v := range c.x {
		if math.Abs(v-c.beta) > tau {
			dst = append(dst, i)
		}
	}
	return dst, true
}

// drawVector returns n values with ties, near-ties a hair apart,
// outliers, and rare NaN and ±Inf.
func drawVector(n int, r *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(r.Intn(41)-20) + 1e-12*float64(r.Intn(3))
		switch r.Intn(60) {
		case 0:
			x[i] = math.NaN()
		case 1:
			x[i] = math.Inf(1 - 2*r.Intn(2))
		case 2, 3:
			x[i] = float64(r.Intn(200)-100) + 1e-12*float64(r.Intn(3))
		}
	}
	return x
}

// TopK and Scan stay the full scan's answer, bit for bit, when every
// key list holds only what its contract requires: any seed keys,
// among them keys the heap starts from, and candidates that are
// exactly the keys past the bound.
func TestBucketPathExactUnderLoosestSource(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(4*scanChunk)
		e := exactSketch{x: drawVector(n, r), beta: float64(r.Intn(5))}
		calls := 0
		src := contractSource{exactSketch: e, seeds: r.Perm(n)[:r.Intn(min(n, 60))], calls: &calls}
		k := 1 + r.Intn(40)
		if got, want := TopK(src, k), TopK(e, k); !sameDeviators(got, want) {
			t.Fatalf("trial %d n=%d k=%d: TopK\n got %v\nwant %v", trial, n, k, got, want)
		}
		for _, th := range []float64{float64(r.Intn(30)), 0, -1, math.Inf(1), math.NaN()} {
			if got, want := Scan(src, th), Scan(e, th); !sameDeviators(got, want) {
				t.Fatalf("trial %d threshold %v: Scan\n got %v\nwant %v", trial, th, got, want)
			}
		}
	}
}

// A key that ties the heap's minimum after the seed keys, with a
// smaller index and outside them, beats that minimum: the starting
// bound sits one ulp below it, so the tie stays a candidate.
func TestTopKTieAtStartingBound(t *testing.T) {
	x := make([]float64, 1000)
	x[500], x[900] = 5, -5
	calls := 0
	src := contractSource{exactSketch: exactSketch{x: x}, seeds: []int{900}, calls: &calls}
	got, want := TopK(src, 1), TopK(src.exactSketch, 1)
	if !sameDeviators(got, want) || got[0].Index != 500 || calls != 1 {
		t.Fatalf("TopK(1) = %v after %d candidate lists, want %v at index 500 after one", got, calls, want)
	}
}

// A NaN deviation among keys 0..k−1 would sit in the heap, where the
// answer depends on the order keys arrive in, so TopK takes the scan
// without listing candidates; one past them never enters the heap, and
// the bucket path answers.
func TestTopKNaNAmongFirstKeys(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	const n, k = 3000, 8
	for _, c := range []struct {
		nan       int
		wantCalls int
	}{{3, 0}, {0, 0}, {k - 1, 0}, {k, 1}, {k + 5, 1}, {n - 1, 1}} {
		x := drawVector(n, r)
		for i := range x {
			if math.IsNaN(x[i]) {
				x[i] = 1
			}
		}
		x[c.nan] = math.NaN()
		calls := 0
		src := contractSource{exactSketch: exactSketch{x: x}, seeds: r.Perm(n)[:20], calls: &calls}
		got, want := TopK(src, k), TopK(src.exactSketch, k)
		if !sameDeviators(got, want) {
			t.Fatalf("NaN at %d: TopK\n got %v\nwant %v", c.nan, got, want)
		}
		if calls != c.wantCalls {
			t.Errorf("NaN at %d: %d candidate lists, want %d", c.nan, calls, c.wantCalls)
		}
	}
}
