package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sketch"
)

// An all-equal vector has min_β Err_p^k(x−β) = 0, so Theorem 3/4
// promise exact recovery: every de-biased bucket is exactly zero.
func TestExactRecoveryAllEqual(t *testing.T) {
	const n, k = 5000, 8
	x := make([]float64, n)
	for i := range x {
		x[i] = 42
	}
	l1 := NewL1SR(Config{N: n, K: k, SampleCount: 64}, rand.New(rand.NewSource(1)))
	l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(2)))
	feed(l1, x)
	feed(l2, x)
	for i := 0; i < n; i += 111 {
		if q := l1.Query(i); math.Abs(q-42) > 1e-9 {
			t.Errorf("ℓ1 Query(%d) = %f, want exactly 42", i, q)
		}
		if q := l2.Query(i); math.Abs(q-42) > 1e-9 {
			t.Errorf("ℓ2 Query(%d) = %f, want exactly 42", i, q)
		}
	}
}

// A perfectly biased k-sparse vector (bias + k outliers, no noise) is
// the other zero-tail case: the crowd must recover exactly and the
// outliers almost exactly (an outlier's own row can collide with
// another outlier, but the row median survives k ≪ s collisions).
func TestExactRecoveryBiasedSparse(t *testing.T) {
	const n, k = 20000, 8
	x := make([]float64, n)
	for i := range x {
		x[i] = 1000
	}
	outliers := map[int]float64{7: 1e6, 5000: -1e6, 19999: 5e5}
	for i, v := range outliers {
		x[i] = v
	}
	l2 := NewL2SR(Config{N: n, K: k, Depth: 11}, rand.New(rand.NewSource(3)))
	feed(l2, x)
	for i := 0; i < n; i += 97 {
		if _, isOut := outliers[i]; isOut {
			continue
		}
		if q := l2.Query(i); math.Abs(q-1000) > 1e-6 {
			t.Errorf("crowd Query(%d) = %f, want 1000", i, q)
		}
	}
	for i, v := range outliers {
		if q := l2.Query(i); math.Abs(q-v) > math.Abs(v)*1e-6 {
			t.Errorf("outlier Query(%d) = %f, want %f", i, q, v)
		}
	}
}

// §4.1's pathological input for the mean: two astronomically large
// coordinates. The sampled-median and median-bucket estimators must
// keep the crowd recoverable.
func TestInfinityStyleOutliers(t *testing.T) {
	const n, k = 10000, 4
	x := make([]float64, n)
	for i := range x {
		x[i] = 50
	}
	x[0], x[1] = 1e15, 1e15
	l1 := NewL1SR(Config{N: n, K: k, SampleCount: 201, Depth: 11}, rand.New(rand.NewSource(4)))
	l2 := NewL2SR(Config{N: n, K: k, Depth: 11}, rand.New(rand.NewSource(5)))
	feed(l1, x)
	feed(l2, x)
	if b := l1.Bias(); math.Abs(b-50) > 1e-9 {
		t.Errorf("ℓ1 bias = %f, want 50", b)
	}
	if b := l2.Bias(); math.Abs(b-50) > 1e-9 {
		t.Errorf("ℓ2 bias = %f, want 50", b)
	}
	bad1, bad2 := 0, 0
	for i := 2; i < n; i += 13 {
		if math.Abs(l1.Query(i)-50) > 1 {
			bad1++
		}
		if math.Abs(l2.Query(i)-50) > 1 {
			bad2++
		}
	}
	// The two huge outliers contaminate at most 2 buckets per row; a
	// handful of coordinates may share a majority of rows with them.
	if bad1 > 5 || bad2 > 5 {
		t.Errorf("too many crowd coordinates disturbed: ℓ1 %d, ℓ2 %d", bad1, bad2)
	}
}

// Tiny dimensions must not panic or divide by zero.
func TestTinyDimensions(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		l1 := NewL1SR(Config{N: n, K: 1, SampleCount: 5}, rand.New(rand.NewSource(6)))
		l2 := NewL2SR(Config{N: n, K: 1}, rand.New(rand.NewSource(7)))
		for i := 0; i < n; i++ {
			l1.Update(i, float64(10*i))
			l2.Update(i, float64(10*i))
		}
		for i := 0; i < n; i++ {
			_ = l1.Query(i)
			_ = l2.Query(i)
		}
		_ = l1.Bias()
		_ = l2.Bias()
	}
}

// Zero updates: queries on an empty sketch return 0.
func TestEmptySketchQueries(t *testing.T) {
	l1 := NewL1SR(Config{N: 100, K: 2}, rand.New(rand.NewSource(8)))
	l2 := NewL2SR(Config{N: 100, K: 2}, rand.New(rand.NewSource(9)))
	for i := 0; i < 100; i += 7 {
		if l1.Query(i) != 0 || l2.Query(i) != 0 {
			t.Fatalf("empty sketch returned non-zero at %d", i)
		}
	}
}

// State round trips for every estimator kind (the wire-format codec substrate).
func TestStateRoundTrip(t *testing.T) {
	const n, k = 3000, 8
	x := biasedGaussian(n, 70, 9, 10)

	t.Run("l1-sampled", func(t *testing.T) {
		cfg := Config{N: n, K: k, SampleCount: 64}
		a := NewL1SR(cfg, rand.New(rand.NewSource(11)))
		feed(a, x)
		b := NewL1SR(cfg, rand.New(rand.NewSource(11)))
		if err := b.UnmarshalState(a.MarshalState()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 41 {
			if a.Query(i) != b.Query(i) {
				t.Fatalf("query mismatch at %d", i)
			}
		}
		if a.Bias() != b.Bias() {
			t.Fatal("bias mismatch after restore")
		}
	})

	t.Run("l2-heap", func(t *testing.T) {
		cfg := Config{N: n, K: k}
		a := NewL2SR(cfg, rand.New(rand.NewSource(12)))
		feed(a, x)
		b := NewL2SR(cfg, rand.New(rand.NewSource(12)))
		if err := b.UnmarshalState(a.MarshalState()); err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Bias()-b.Bias()) > 1e-12 {
			t.Fatalf("bias mismatch: %f vs %f", a.Bias(), b.Bias())
		}
		for i := 0; i < n; i += 41 {
			if a.Query(i) != b.Query(i) {
				t.Fatalf("query mismatch at %d", i)
			}
		}
		// The restored sketch must remain updatable (heap consistent).
		a.Update(5, 100)
		b.Update(5, 100)
		if math.Abs(a.Bias()-b.Bias()) > 1e-12 {
			t.Fatal("bias diverged after post-restore update")
		}
	})

	t.Run("l2-mean", func(t *testing.T) {
		cfg := Config{N: n, K: k, Estimator: EstimatorMean}
		a := NewL2SR(cfg, rand.New(rand.NewSource(13)))
		feed(a, x)
		b := NewL2SR(cfg, rand.New(rand.NewSource(13)))
		if err := b.UnmarshalState(a.MarshalState()); err != nil {
			t.Fatal(err)
		}
		if a.Bias() != b.Bias() {
			t.Fatal("mean bias mismatch")
		}
	})
}

func TestStateErrors(t *testing.T) {
	l2 := NewL2SR(Config{N: 100, K: 2}, rand.New(rand.NewSource(14)))
	if err := l2.UnmarshalState([]byte{1, 2}); err == nil {
		t.Error("short state should fail")
	}
	good := l2.MarshalState()
	if err := l2.UnmarshalState(good[:len(good)-3]); err == nil {
		t.Error("truncated state should fail")
	}
	// State from a different shape must be rejected.
	other := NewL2SR(Config{N: 100, K: 4}, rand.New(rand.NewSource(15)))
	if err := l2.UnmarshalState(other.MarshalState()); err == nil {
		t.Error("mismatched shape state should fail")
	}
}

// Recover must be consistent with Query (the batch recovery is just n
// point queries).
func TestRecoverMatchesQueries(t *testing.T) {
	const n, k = 2000, 8
	x := biasedGaussian(n, 30, 4, 16)
	l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(17)))
	feed(l2, x)
	xhat := sketch.Recover(l2)
	for i := 0; i < n; i += 19 {
		if xhat[i] != l2.Query(i) {
			t.Fatalf("Recover[%d] != Query(%d)", i, i)
		}
	}
}
