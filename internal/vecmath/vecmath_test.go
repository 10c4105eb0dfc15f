package vecmath

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4, 0}
	if got := Norm1(x); got != 7 {
		t.Errorf("Norm1 = %f, want 7", got)
	}
	if got := Norm2(x); got != 5 {
		t.Errorf("Norm2 = %f, want 5", got)
	}
	if got := NormInf(x); got != 4 {
		t.Errorf("NormInf = %f, want 4", got)
	}
}

func TestNormsEmpty(t *testing.T) {
	if Norm1(nil) != 0 || Norm2(nil) != 0 || NormInf(nil) != 0 {
		t.Error("norms of empty vector should be 0")
	}
}

func TestMeanMedianVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := Mean(x); got != 3 {
		t.Errorf("Mean = %f, want 3", got)
	}
	if got := Median(x); got != 3 {
		t.Errorf("Median = %f, want 3", got)
	}
	if got := Variance(x); got != 2 {
		t.Errorf("Variance = %f, want 2", got)
	}
	even := []float64{4, 1, 3, 2}
	if got := Median(even); got != 2.5 {
		t.Errorf("Median even = %f, want 2.5", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	x := []float64{5, 1, 3}
	Median(x)
	if x[0] != 5 || x[1] != 1 || x[2] != 3 {
		t.Error("Median mutated its input")
	}
}

func TestEmptyStats(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 || Variance(nil) != 0 {
		t.Error("stats of empty vector should be 0")
	}
}

func TestSubScalar(t *testing.T) {
	x := []float64{10, 20, 30}
	y := SubScalar(x, 5)
	want := []float64{5, 15, 25}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("SubScalar[%d] = %f, want %f", i, y[i], want[i])
		}
	}
	if x[0] != 10 {
		t.Error("SubScalar mutated input")
	}
}

// TestErrKPaperExample reproduces the running example of §1:
// x = (3, 100, 101, 500, 102, 98, 97, 100, 99, 103), k = 2.
func TestErrKPaperExample(t *testing.T) {
	x := []float64{3, 100, 101, 500, 102, 98, 97, 100, 99, 103}
	k := 2
	if got := ErrK(x, k, 1); got != 700 {
		t.Errorf("Err_1^2 = %f, want 700", got)
	}
	if got := ErrK(x, k, 2); !almostEq(got, math.Sqrt(69428), 1e-12) {
		t.Errorf("Err_2^2 = %f, want sqrt(69428) = %f", got, math.Sqrt(69428))
	}
	b1, e1 := MinBetaErrK(x, k, 1)
	if e1 != 12 {
		t.Errorf("min_beta Err_1^2 = %f, want 12", e1)
	}
	if b1 != 100 {
		t.Errorf("argmin beta (p=1) = %f, want 100", b1)
	}
	b2, e2 := MinBetaErrK(x, k, 2)
	if !almostEq(e2, math.Sqrt(28), 1e-12) {
		t.Errorf("min_beta Err_2^2 = %f, want sqrt(28) = %f", e2, math.Sqrt(28))
	}
	if !almostEq(b2, 100, 1e-12) {
		t.Errorf("argmin beta (p=2) = %f, want 100", b2)
	}
}

func TestErrKSparse(t *testing.T) {
	// A k-sparse vector has Err_p^k = 0.
	x := []float64{0, 0, 7, 0, -3, 0}
	if ErrK(x, 2, 1) != 0 || ErrK(x, 2, 2) != 0 {
		t.Error("Err_p^k of a k-sparse vector should be 0")
	}
}

func TestErrKClamping(t *testing.T) {
	x := []float64{1, 2, 3}
	if ErrK(x, -1, 1) != 6 {
		t.Error("negative k should clamp to 0")
	}
	if ErrK(x, 10, 1) != 0 {
		t.Error("k >= n should give 0")
	}
}

func TestErrKPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=3")
		}
	}()
	ErrK([]float64{1}, 0, 3)
}

func TestMinBetaErrKPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	MinBetaErrK([]float64{1}, 0, 0)
}

func TestMinBetaDegenerate(t *testing.T) {
	if _, e := MinBetaErrK(nil, 0, 1); e != 0 {
		t.Error("empty vector should have zero error")
	}
	b, e := MinBetaErrK([]float64{5, 5, 5}, 3, 2)
	if e != 0 {
		t.Error("k >= n should give zero error")
	}
	if b != 5 {
		t.Errorf("degenerate beta = %f, want 5", b)
	}
}

func TestMinBetaAllEqual(t *testing.T) {
	x := []float64{42, 42, 42, 42}
	for _, p := range []int{1, 2} {
		b, e := MinBetaErrK(x, 1, p)
		if e != 0 {
			t.Errorf("p=%d: error = %f, want 0", p, e)
		}
		if b != 42 {
			t.Errorf("p=%d: beta = %f, want 42", p, b)
		}
	}
}

// bruteMinBeta computes min_beta Err_p^k by trying every candidate
// window directly (quadratic reference implementation).
func bruteMinBeta(x []float64, k, p int) float64 {
	n := len(x)
	if k >= n {
		return 0
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	m := n - k
	best := math.Inf(1)
	for l := 0; l+m <= n; l++ {
		w := sorted[l : l+m]
		var cost float64
		if p == 1 {
			med := MedianSorted(w)
			for _, v := range w {
				cost += math.Abs(v - med)
			}
		} else {
			mu := Mean(w)
			for _, v := range w {
				cost += (v - mu) * (v - mu)
			}
			cost = math.Sqrt(cost)
		}
		if cost < best {
			best = cost
		}
	}
	return best
}

func TestMinBetaMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(40)
		k := r.Intn(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Round(r.NormFloat64()*50) + 100
		}
		for _, p := range []int{1, 2} {
			_, got := MinBetaErrK(x, k, p)
			want := bruteMinBeta(x, k, p)
			if !almostEq(got, want, 1e-9) {
				t.Fatalf("trial %d p=%d k=%d: MinBetaErrK = %f, brute = %f (x=%v)",
					trial, p, k, got, want, x)
			}
		}
	}
}

// Property: min_beta Err_p^k(x − β) <= Err_p^k(x) (β=0 is a candidate).
func TestMinBetaNoWorseThanZeroBiasProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(60)
		k := rr.Intn(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rr.NormFloat64() * 100
		}
		for _, p := range []int{1, 2} {
			_, e := MinBetaErrK(x, k, p)
			if e > ErrK(x, k, p)+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Err_p^k is non-increasing in k.
func TestErrKMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = rr.NormFloat64() * 10
		}
		for _, p := range []int{1, 2} {
			prev := math.Inf(1)
			for k := 0; k <= n; k++ {
				e := ErrK(x, k, p)
				if e > prev+1e-12 {
					return false
				}
				prev = e
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: r}); err != nil {
		t.Error(err)
	}
}

// Property: shifting the whole vector shifts the optimal bias but
// preserves the optimal error (translation invariance).
func TestMinBetaTranslationInvarianceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func(seed int64, shiftRaw float64) bool {
		rr := rand.New(rand.NewSource(seed))
		shift := math.Mod(shiftRaw, 1e6)
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			shift = 17
		}
		n := 3 + rr.Intn(40)
		k := rr.Intn(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rr.NormFloat64() * 30
		}
		y := make([]float64, n)
		for i := range x {
			y[i] = x[i] + shift
		}
		for _, p := range []int{1, 2} {
			_, e1 := MinBetaErrK(x, k, p)
			_, e2 := MinBetaErrK(y, k, p)
			if !almostEq(e1, e2, 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestAvgMaxAbsErr(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 2, 1, 4}
	if got := AvgAbsErr(x, y); got != 0.75 {
		t.Errorf("AvgAbsErr = %f, want 0.75", got)
	}
	if got := MaxAbsErr(x, y); got != 2 {
		t.Errorf("MaxAbsErr = %f, want 2", got)
	}
}

func TestAvgAbsErrPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AvgAbsErr([]float64{1}, []float64{1, 2})
}

func TestMaxAbsErrPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxAbsErr([]float64{1}, []float64{1, 2})
}

func TestTopKDeviating(t *testing.T) {
	x := []float64{100, 3, 101, 500, 99}
	got := TopKDeviating(x, 100, 2)
	want := map[int]bool{1: true, 3: true} // 3 and 500 deviate most from 100
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Errorf("TopKDeviating = %v, want indices {1,3}", got)
	}
}

func TestDropTopKDeviating(t *testing.T) {
	x := []float64{100, 3, 101, 500, 99}
	got := DropTopKDeviating(x, 100, 2)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Should keep 100, 101, 99 in original order.
	want := []float64{100, 101, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("kept[%d] = %f, want %f", i, got[i], want[i])
		}
	}
}

func TestTopKDeviatingClamp(t *testing.T) {
	x := []float64{1, 2}
	if len(TopKDeviating(x, 0, 5)) != 2 {
		t.Error("k > n should clamp to n")
	}
	if len(TopKDeviating(x, 0, -3)) != 0 {
		t.Error("negative k should clamp to 0")
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{5, 1, 4, 2, 3}
	if got := Percentile(x, 0); got != 1 {
		t.Errorf("P0 = %f, want 1", got)
	}
	if got := Percentile(x, 1); got != 5 {
		t.Errorf("P100 = %f, want 5", got)
	}
	if got := Percentile(x, 0.5); got != 3 {
		t.Errorf("P50 = %f, want 3", got)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

// Lemma 1 (sanity): for p=1 the optimal bias equals the median of x*
// (the vector with the k worst deviators dropped).
func TestLemma1MedianConnection(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 100; trial++ {
		n := 5 + 2*r.Intn(20) // keep n-k odd often enough
		k := r.Intn(n / 2)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Round(r.NormFloat64() * 20)
		}
		beta, e := MinBetaErrK(x, k, 1)
		xStar := DropTopKDeviating(x, beta, k)
		med := Median(xStar)
		// ||x* − med||_1 must equal the optimal error (Lemma 1).
		var cost float64
		for _, v := range xStar {
			cost += math.Abs(v - med)
		}
		if !almostEq(cost, e, 1e-9) {
			t.Fatalf("trial %d: ||x*-median||_1 = %f != optimal %f", trial, cost, e)
		}
	}
}

// Lemma 4 (sanity): for p=2 the squared optimum equals (n−k)·σ²(x*).
func TestLemma4VarianceConnection(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 100; trial++ {
		n := 5 + r.Intn(40)
		k := r.Intn(n / 2)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 20
		}
		beta, e := MinBetaErrK(x, k, 2)
		xStar := DropTopKDeviating(x, beta, k)
		want := math.Sqrt(float64(len(xStar)) * Variance(xStar))
		if !almostEq(want, e, 1e-8) {
			t.Fatalf("trial %d: sqrt((n-k)σ²(x*)) = %f != optimal %f", trial, want, e)
		}
	}
}

func BenchmarkMinBetaErrK1(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := make([]float64, 100000)
	for i := range x {
		x[i] = r.NormFloat64()*15 + 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinBetaErrK(x, 100, 1)
	}
}

func BenchmarkMinBetaErrK2(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := make([]float64, 100000)
	for i := range x {
		x[i] = r.NormFloat64()*15 + 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinBetaErrK(x, 100, 2)
	}
}

// Norm2 returns the ℓ2 norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SubScalar returns x − β (coordinate-wise, Table 1's x − β notation)
// as a new vector.
func SubScalar(x []float64, beta float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - beta
	}
	return out
}

// DropTopKDeviating returns x with the k coordinates deviating most
// from beta removed — the vector x* of Lemmas 1 and 4.
func DropTopKDeviating(x []float64, beta float64, k int) []float64 {
	drop := TopKDeviating(x, beta, k)
	dropped := make(map[int]bool, len(drop))
	for _, i := range drop {
		dropped[i] = true
	}
	out := make([]float64, 0, len(x)-len(drop))
	for i, v := range x {
		if !dropped[i] {
			out = append(out, v)
		}
	}
	return out
}
