package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

func TestTailEstimateGaussian(t *testing.T) {
	const n, k = 50000, 64
	x := biasedGaussian(n, 100, 15, 1)
	l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(2)))
	feed(l2, x)
	est, ok := l2.TailEstimate()
	if !ok {
		t.Fatal("median-bucket estimator should support TailEstimate")
	}
	_, truth := vecmath.MinBetaErrK(x, k, 2)
	if est < 0.7*truth || est > 1.3*truth {
		t.Errorf("TailEstimate = %f, true min_beta Err_2^k = %f (want within 30%%)", est, truth)
	}
}

// The estimate must be independent of the bias magnitude (it measures
// the de-biased tail).
func TestTailEstimateBiasIndependent(t *testing.T) {
	const n, k = 30000, 32
	estAt := func(b float64) float64 {
		x := biasedGaussian(n, b, 15, 3)
		l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(4)))
		feed(l2, x)
		e, ok := l2.TailEstimate()
		if !ok {
			t.Fatal("TailEstimate unsupported")
		}
		return e
	}
	a, b := estAt(100), estAt(5000)
	if math.Abs(a-b) > 0.2*a {
		t.Errorf("tail estimate moved with bias: %f vs %f", a, b)
	}
}

// Outliers must not inflate the estimate much — their buckets sort to
// the excluded edges.
func TestTailEstimateRobustToOutliers(t *testing.T) {
	const n, k = 30000, 64
	clean := biasedGaussian(n, 100, 15, 5)
	dirty := append([]float64(nil), clean...)
	r := rand.New(rand.NewSource(6))
	for j := 0; j < k/2; j++ {
		dirty[r.Intn(n)] += 1e7
	}
	estOf := func(x []float64) float64 {
		l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(7)))
		feed(l2, x)
		e, ok := l2.TailEstimate()
		if !ok {
			t.Fatal("unsupported")
		}
		return e
	}
	ec, ed := estOf(clean), estOf(dirty)
	if ed > 2*ec {
		t.Errorf("outliers inflated tail estimate: clean %f dirty %f", ec, ed)
	}
}

// The estimate should be a usable confidence scale: the realized max
// point error stays within a small multiple of TailEstimate/√k.
func TestTailEstimateCalibratesError(t *testing.T) {
	const n, k = 30000, 64
	x := biasedGaussian(n, 200, 10, 8)
	l2 := NewL2SR(Config{N: n, K: k, Depth: 11}, rand.New(rand.NewSource(9)))
	feed(l2, x)
	est, ok := l2.TailEstimate()
	if !ok {
		t.Fatal("unsupported")
	}
	scale := est / math.Sqrt(float64(k))
	var worst float64
	for i := 0; i < n; i += 17 {
		if e := math.Abs(l2.Query(i) - x[i]); e > worst {
			worst = e
		}
	}
	if worst > 4*scale {
		t.Errorf("realized max error %f exceeds 4×(TailEstimate/√k) = %f", worst, 4*scale)
	}
	if worst < scale/50 {
		t.Errorf("scale %f wildly pessimistic vs realized %f", scale, worst)
	}
}

func TestTailEstimateUnsupportedEstimators(t *testing.T) {
	const n, k = 1000, 8
	for _, kind := range []EstimatorKind{EstimatorMean, EstimatorSampledMedian} {
		l2 := NewL2SR(Config{N: n, K: k, Estimator: kind, SampleCount: 32},
			rand.New(rand.NewSource(10)))
		if _, ok := l2.TailEstimate(); ok {
			t.Errorf("estimator %v should not support TailEstimate", kind)
		}
	}
}

// A streamed replica, which keeps the Bias-Heap current per update,
// and a never-read one, which orders its buckets at the first query,
// report the tail estimate at the sort oracle's β̂: their bucket masses
// are the same, and only when the order was found differs.
func TestTailEstimateHeapMatchesSort(t *testing.T) {
	const n, k = 5000, 16
	x := biasedGaussian(n, 60, 8, 11)
	streamed := settledL2SR(Config{N: n, K: k}, 12)
	cold := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(12)))
	feed(streamed, x)
	feed(cold, x)
	e := cold.est.(*medianBucketEstimator)
	sigma2, ok := e.tailSigma2(sortBias(e.w, e.pi, e.k))
	if !ok {
		t.Fatal("oracle: no tail estimate")
	}
	want := math.Sqrt(n * sigma2)
	for name, l := range map[string]*SR{"streamed": streamed, "never read": cold} {
		got, ok := l.TailEstimate()
		if !ok {
			t.Fatalf("%s: unsupported", name)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: tail estimate %f, sort %f", name, got, want)
		}
	}
}

func TestInsertionSortByKey(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(2000)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(r.Intn(50)) // force ties
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		insertionSortByKey(ids, func(i int) float64 { return keys[i] })
		for i := 1; i < n; i++ {
			ka, kb := keys[ids[i-1]], keys[ids[i]]
			if ka > kb || (ka == kb && ids[i-1] > ids[i]) {
				t.Fatalf("trial %d: not sorted at %d", trial, i)
			}
		}
	}
}
