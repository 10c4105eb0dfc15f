package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sketch"
	"repro/internal/vecmath"
)

// paperExample is the running example of §1: k = 2, n = 10.
func paperExample() ([]float64, int) {
	return []float64{3, 100, 101, 500, 102, 98, 97, 100, 99, 103}, 2
}

func biasedGaussian(n int, bias, sigma float64, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Round(r.NormFloat64()*sigma + bias)
	}
	return x
}

func feed(s sketch.Sketch, x []float64) {
	for i, v := range x {
		if v != 0 {
			s.Update(i, v)
		}
	}
}

func TestL1ConfigDefaults(t *testing.T) {
	l := NewL1SR(Config{N: 1000, K: 8}, rand.New(rand.NewSource(1)))
	cfg := l.Config()
	if cfg.Cs != 4 || cfg.Depth != 9 {
		t.Errorf("defaults: Cs=%d Depth=%d, want 4 and 9", cfg.Cs, cfg.Depth)
	}
	if cfg.SampleCount != defaultSampleCount(1000) {
		t.Errorf("SampleCount = %d, want %d", cfg.SampleCount, defaultSampleCount(1000))
	}
	if cfg.Estimator != EstimatorSampledMedian {
		t.Errorf("Estimator = %v, want sampled-median", cfg.Estimator)
	}
}

func TestL2ConfigDefaults(t *testing.T) {
	l := NewL2SR(Config{N: 1000, K: 8}, rand.New(rand.NewSource(1)))
	cfg := l.Config()
	if cfg.Cs != 4 || cfg.Depth != 9 || cfg.Estimator != EstimatorMedianBucket {
		t.Errorf("unexpected defaults %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, K: 1},
		{N: 10, K: 0},
		{N: 10, K: 1, Cs: 2},
		{N: 10, K: 1, Depth: -1},
		{N: 10, K: 1, SampleCount: -5},
		{N: 10, K: 1, Estimator: EstimatorMedianBucket}, // not valid for ℓ1
	}
	for _, c := range bad {
		cc := c.withDefaults(false)
		// Put back the explicitly-invalid zero fields the defaults fixed.
		if c.N == 0 {
			cc.N = 0
		}
		if c.K == 0 {
			cc.K = 0
		}
		if c.Cs == 2 {
			cc.Cs = 2
		}
		if c.Depth == -1 {
			cc.Depth = -1
		}
		if c.SampleCount == -5 {
			cc.SampleCount = -5
		}
		if cc.validate(false) == nil {
			t.Errorf("Validate(%+v) should fail", cc)
		}
	}
	badL2 := []Config{
		{N: 0, K: 1},
		{N: 10, K: 0},
		{N: 10, K: 1, Cs: 3},
	}
	for _, c := range badL2 {
		cc := c.withDefaults(true)
		if c.N == 0 {
			cc.N = 0
		}
		if c.K == 0 {
			cc.K = 0
		}
		if c.Cs == 3 {
			cc.Cs = 3
		}
		if cc.validate(true) == nil {
			t.Errorf("Validate(%+v) should fail", cc)
		}
	}
}

func TestEstimatorKindString(t *testing.T) {
	cases := map[EstimatorKind]string{
		EstimatorDefault:       "default",
		EstimatorSampledMedian: "sampled-median",
		EstimatorMedianBucket:  "median-bucket",
		EstimatorMean:          "mean",
		EstimatorKind(99):      "EstimatorKind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

// On the paper's own example the bias estimates should land near 100.
func TestBiasEstimateOnPaperExample(t *testing.T) {
	x, k := paperExample()
	l1 := NewL1SR(Config{N: len(x), K: k, SampleCount: 101}, rand.New(rand.NewSource(2)))
	feed(l1, x)
	if b := l1.Bias(); math.Abs(b-100) > 4 {
		t.Errorf("ℓ1 bias = %f, want ≈100", b)
	}
	l2 := NewL2SR(Config{N: len(x), K: k}, rand.New(rand.NewSource(3)))
	feed(l2, x)
	if b := l2.Bias(); math.Abs(b-100) > 60 {
		// n=10 is tiny; the middle buckets may still include an outlier.
		t.Errorf("ℓ2 bias = %f, want loosely ≈100", b)
	}
}

// The headline claim on realistic sizes: ℓ1/ℓ2-S/R recover a biased
// Gaussian vector far more accurately than Count-Median/Count-Sketch
// at the same size (Figure 1's qualitative shape).
func TestBiasAwareBeatsClassicalOnBiasedGaussian(t *testing.T) {
	const n, k = 50000, 64
	x := biasedGaussian(n, 100, 15, 4)
	seedA, seedB := int64(5), int64(6)

	l1 := NewL1SR(Config{N: n, K: k, SampleCount: 4 * k}, rand.New(rand.NewSource(seedA)))
	l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(seedB)))
	cm := must(sketch.NewCountMedian(sketch.Config{N: n, Rows: 4 * k, Depth: 10}, rand.New(rand.NewSource(seedA))))
	cs := must(sketch.NewCountSketch(sketch.Config{N: n, Rows: 4 * k, Depth: 10}, rand.New(rand.NewSource(seedB))))
	for _, s := range []sketch.Sketch{l1, l2, cm, cs} {
		feed(s, x)
	}

	l1Err := vecmath.AvgAbsErr(x, sketch.Recover(l1))
	l2Err := vecmath.AvgAbsErr(x, sketch.Recover(l2))
	cmErr := vecmath.AvgAbsErr(x, sketch.Recover(cm))
	csErr := vecmath.AvgAbsErr(x, sketch.Recover(cs))

	if l1Err >= cmErr/3 {
		t.Errorf("ℓ1-S/R avg err %f should be ≪ Count-Median %f", l1Err, cmErr)
	}
	// The improvement factor is parameter dependent (noise per bucket
	// scales with sqrt(n/s)·σ after de-biasing versus
	// sqrt(n/s)·sqrt(σ²+b²) before); at these sizes a 2× gap is the
	// conservative expectation.
	if l2Err >= csErr/2 {
		t.Errorf("ℓ2-S/R avg err %f should be ≪ Count-Sketch %f", l2Err, csErr)
	}
}

// Theorem 3 quantitative check: the bulk of coordinates obey
// C/k · min_β Err_1^k(x−β) for a modest constant C.
func TestL1TheoremBound(t *testing.T) {
	const n, k = 30000, 32
	r := rand.New(rand.NewSource(7))
	x := biasedGaussian(n, 250, 10, 8)
	for i := 0; i < k; i++ {
		x[r.Intn(n)] += 50000 // outliers
	}
	l1 := NewL1SR(Config{N: n, K: k, Depth: 11, SampleCount: 8 * k}, r)
	feed(l1, x)
	xhat := sketch.Recover(l1)
	_, opt := vecmath.MinBetaErrK(x, k, 1)
	bound := opt / float64(k)
	errs := make([]float64, n)
	for i := range errs {
		errs[i] = math.Abs(x[i] - xhat[i])
	}
	if got := vecmath.Percentile(errs, 0.995); got > 8*bound {
		t.Errorf("ℓ1-S/R P99.5 err %f exceeds 8×bound %f", got, 8*bound)
	}
}

// Theorem 4 quantitative check.
func TestL2TheoremBound(t *testing.T) {
	const n, k = 30000, 32
	r := rand.New(rand.NewSource(9))
	x := biasedGaussian(n, 250, 10, 10)
	for i := 0; i < k; i++ {
		x[r.Intn(n)] += 50000
	}
	l2 := NewL2SR(Config{N: n, K: k, Depth: 11}, r)
	feed(l2, x)
	xhat := sketch.Recover(l2)
	_, opt := vecmath.MinBetaErrK(x, k, 2)
	bound := opt / math.Sqrt(float64(k))
	errs := make([]float64, n)
	for i := range errs {
		errs[i] = math.Abs(x[i] - xhat[i])
	}
	if got := vecmath.Percentile(errs, 0.995); got > 8*bound {
		t.Errorf("ℓ2-S/R P99.5 err %f exceeds 8×bound %f", got, 8*bound)
	}
}

// §4.1's warm-up: the mean is ruined by extreme outliers while the
// sampled median is not.
func TestMeanEstimatorContaminated(t *testing.T) {
	const n = 10000
	x := make([]float64, n)
	for i := range x {
		x[i] = 50
	}
	x[0], x[1] = 1e12, 1e12

	mean := NewL1SR(Config{N: n, K: 2, Estimator: EstimatorMean}, rand.New(rand.NewSource(11)))
	med := NewL1SR(Config{N: n, K: 2, SampleCount: 401}, rand.New(rand.NewSource(12)))
	feed(mean, x)
	feed(med, x)
	if b := med.Bias(); math.Abs(b-50) > 1e-9 {
		t.Errorf("sampled-median bias = %f, want 50", b)
	}
	if b := mean.Bias(); math.Abs(b-50) < 1e6 {
		t.Errorf("mean bias = %f should be contaminated (far from 50)", b)
	}
}

// A replica read from its first update on keeps the Bias-Heap current
// per update (Algorithm 5); one never read orders its buckets at the
// first query (Algorithm 4). Both must agree with a sort of the bucket
// masses, mid-stream and at the end, built from the same seed.
func TestBiasHeapMatchesSort(t *testing.T) {
	const n, k = 5000, 16
	x := biasedGaussian(n, 77, 9, 13)
	streamed := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(14)))
	cold := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(14)))
	streamed.Bias() // settle before the first update
	for i, v := range x {
		streamed.Update(i, v)
		cold.Update(i, v)
		if i%997 == 0 {
			// Bias estimates must agree mid-stream, not just at the end.
			if got, want := streamed.Bias(), sortBiasOf(cold); math.Abs(got-want) > 1e-9 {
				t.Fatalf("bias diverged mid-stream at %d: sort %f heap %f", i, want, got)
			}
		}
	}
	if !isSettled(streamed) || isSettled(cold) {
		t.Fatal("reading one replica settled the other")
	}
	want := sortBiasOf(cold)
	for name, l := range map[string]*SR{"streamed": streamed, "never read": cold} {
		if got := l.Bias(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: bias %f, sort %f", name, got, want)
		}
	}
	for i := 0; i < n; i += 31 {
		if qa, qb := cold.Query(i), streamed.Query(i); math.Abs(qa-qb) > 1e-9 {
			t.Fatalf("query %d: never read %f != streamed %f", i, qa, qb)
		}
	}
}

// Linearity: merging per-site sketches equals sketching the global
// vector, for both schemes and all estimator kinds (§1's distributed
// model).
func TestMergeEqualsWhole(t *testing.T) {
	const n, k, sites = 4000, 8, 3
	r := rand.New(rand.NewSource(15))
	global := make([]float64, n)
	parts := make([][]float64, sites)
	for p := range parts {
		parts[p] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for p := 0; p < sites; p++ {
			v := math.Round(r.NormFloat64()*5 + 30)
			parts[p][i] = v
			global[i] += v
		}
	}

	t.Run("l1", func(t *testing.T) {
		for _, est := range []EstimatorKind{EstimatorSampledMedian, EstimatorMean} {
			cfg := Config{N: n, K: k, Estimator: est, SampleCount: 64}
			whole := NewL1SR(cfg, rand.New(rand.NewSource(16)))
			feed(whole, global)
			merged := NewL1SR(cfg, rand.New(rand.NewSource(16)))
			feed(merged, parts[0])
			for p := 1; p < sites; p++ {
				site := NewL1SR(cfg, rand.New(rand.NewSource(16)))
				feed(site, parts[p])
				if err := merged.MergeFrom(site); err != nil {
					t.Fatalf("est %v: merge: %v", est, err)
				}
			}
			for i := 0; i < n; i += 53 {
				if w, m := whole.Query(i), merged.Query(i); math.Abs(w-m) > 1e-6 {
					t.Fatalf("est %v: query %d: whole %f merged %f", est, i, w, m)
				}
			}
		}
	})

	t.Run("l2", func(t *testing.T) {
		cfg := Config{N: n, K: k}
		whole := NewL2SR(cfg, rand.New(rand.NewSource(17)))
		feed(whole, global)
		merged := NewL2SR(cfg, rand.New(rand.NewSource(17)))
		feed(merged, parts[0])
		for p := 1; p < sites; p++ {
			site := NewL2SR(cfg, rand.New(rand.NewSource(17)))
			feed(site, parts[p])
			if err := merged.MergeFrom(site); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		for i := 0; i < n; i += 53 {
			if w, m := whole.Query(i), merged.Query(i); math.Abs(w-m) > 1e-6 {
				t.Fatalf("query %d: whole %f merged %f", i, w, m)
			}
		}
	})
}

// Merging a replica whose samples are all +0 moves no sampled value:
// after an empty replica, β̂ and every answer keep their bits, and after
// one whose updates all miss the sampled keys β̂ keeps its bits and the
// answers equal one sketch fed both streams.
func TestMergeZeroSamplesKeepsAnswers(t *testing.T) {
	const n = 4000
	b := NewL1Basis(Config{N: n, K: 8, SampleCount: 64}, rand.New(rand.NewSource(31)))
	x := biasedGaussian(n, 50, 5, 32)
	dst, whole := b.New(), b.New()
	feed(dst, x)
	feed(whole, x)
	bits := func(l *SR) []uint64 {
		out := []uint64{math.Float64bits(l.Bias())}
		for i := 0; i < n; i += 7 {
			out = append(out, math.Float64bits(l.Query(i)))
		}
		return out
	}
	before := bits(dst)
	if err := dst.MergeFrom(b.New()); err != nil {
		t.Fatal(err)
	}
	for k, v := range bits(dst) {
		if v != before[k] {
			t.Fatalf("value %d moved after merging an empty replica: %x, was %x", k, v, before[k])
		}
	}

	sampled := map[int]bool{}
	for _, i := range b.est.(*sampleSeed).slots {
		sampled[i] = true
	}
	miss := b.New()
	for i := 0; i < n; i += 3 {
		if !sampled[i] {
			miss.Update(i, 2)
			whole.Update(i, 2)
		}
	}
	if err := dst.MergeFrom(miss); err != nil {
		t.Fatal(err)
	}
	got, want := bits(dst), bits(whole)
	if got[0] != before[0] {
		t.Fatalf("β̂ moved after a merge that missed every sample: %x, was %x", got[0], before[0])
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("value %d: merged %x, one sketch %x", k, got[k], want[k])
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := NewL1SR(Config{N: 100, K: 4}, rand.New(rand.NewSource(18)))
	b := NewL1SR(Config{N: 100, K: 8}, rand.New(rand.NewSource(18)))
	if err := a.MergeFrom(b); err == nil {
		t.Error("merging different K should fail")
	}
	c := NewL1SR(Config{N: 100, K: 4}, rand.New(rand.NewSource(19)))
	if err := a.MergeFrom(c); err == nil {
		t.Error("merging different seeds should fail")
	}
	d := NewL2SR(Config{N: 100, K: 4}, rand.New(rand.NewSource(20)))
	e := NewL2SR(Config{N: 100, K: 8}, rand.New(rand.NewSource(20)))
	if err := d.MergeFrom(e); err == nil {
		t.Error("ℓ2 merging different K should fail")
	}
}

// An ℓ1 and an ℓ2 replica never merge, even when one Config builds
// both: with the mean estimator their defaulted configurations are
// equal. The refusal leaves the destination as it was.
func TestMergeRefusesOtherScheme(t *testing.T) {
	cfg := Config{N: 100, K: 4, Estimator: EstimatorMean}
	l1 := NewL1SR(cfg, rand.New(rand.NewSource(21)))
	l2 := NewL2SR(cfg, rand.New(rand.NewSource(21)))
	if l1.Config() != l2.Config() {
		t.Fatalf("configs differ: %+v and %+v", l1.Config(), l2.Config())
	}
	for i := 0; i < 100; i++ {
		l1.Update(i, float64(i%7))
		l2.Update(i, float64(i%5))
	}
	for _, c := range []struct {
		name     string
		dst, src *SR
	}{{"ℓ1 ← ℓ2", l1, l2}, {"ℓ2 ← ℓ1", l2, l1}} {
		before, bias := c.dst.MarshalState(), c.dst.Bias()
		if err := c.dst.MergeFrom(c.src); !errors.Is(err, sketch.ErrIncompatible) {
			t.Errorf("%s: MergeFrom = %v, want sketch.ErrIncompatible", c.name, err)
		}
		if !bytes.Equal(c.dst.MarshalState(), before) || math.Float64bits(c.dst.Bias()) != math.Float64bits(bias) {
			t.Errorf("%s: a refused merge changed the destination", c.name)
		}
	}
}

// Negative updates (deletions, turnstile model) are fully supported by
// linearity: sketch of x then of -x recovers zero.
func TestTurnstileCancellation(t *testing.T) {
	const n, k = 2000, 8
	x := biasedGaussian(n, 60, 5, 21)
	l1 := NewL1SR(Config{N: n, K: k}, rand.New(rand.NewSource(22)))
	l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(23)))
	for i, v := range x {
		l1.Update(i, v)
		l2.Update(i, v)
	}
	for i, v := range x {
		l1.Update(i, -v)
		l2.Update(i, -v)
	}
	for i := 0; i < n; i += 97 {
		if q := l1.Query(i); math.Abs(q) > 1e-7 {
			t.Errorf("ℓ1 query %d = %f after cancellation, want 0", i, q)
		}
		if q := l2.Query(i); math.Abs(q) > 1e-7 {
			t.Errorf("ℓ2 query %d = %f after cancellation, want 0", i, q)
		}
	}
}

// Streaming real-time queries: mid-stream answers must track the
// prefix vector (the whole point of §4.4).
func TestStreamingMidStreamQueries(t *testing.T) {
	const n, k = 3000, 8
	r := rand.New(rand.NewSource(24))
	l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(25)))
	prefix := make([]float64, n)
	for step := 0; step < 60000; step++ {
		i := r.Intn(n)
		prefix[i]++
		l2.Update(i, 1)
		if step == 20000 || step == 59999 {
			// Bias should be near the prefix average (uniform stream,
			// no outliers).
			want := vecmath.Mean(prefix)
			if got := l2.Bias(); math.Abs(got-want) > 0.3*want+1 {
				t.Errorf("step %d: bias %f, want ≈%f", step, got, want)
			}
			maxErr := 0.0
			for i := 0; i < n; i += 29 {
				if e := math.Abs(l2.Query(i) - prefix[i]); e > maxErr {
					maxErr = e
				}
			}
			// Bucket noise is ~sqrt(n/s)·σ(prefix) ≈ 25 here; allow 3×.
			if maxErr > 75 {
				t.Errorf("step %d: mid-stream max point error %f too large", step, maxErr)
			}
		}
	}
}

func TestWordsAccounting(t *testing.T) {
	l1 := NewL1SR(Config{N: 1000, K: 10, SampleCount: 50}, rand.New(rand.NewSource(26)))
	// d*s + samples = 9*40 + 50.
	if got := l1.Words(); got != 410 {
		t.Errorf("ℓ1 Words = %d, want 410", got)
	}
	l2 := NewL2SR(Config{N: 1000, K: 10}, rand.New(rand.NewSource(27)))
	// d*s + s = 9*40 + 40.
	if got := l2.Words(); got != 400 {
		t.Errorf("ℓ2 Words = %d, want 400", got)
	}
	if l1.Dim() != 1000 || l2.Dim() != 1000 {
		t.Error("Dim mismatch")
	}
}

// ℓ2-S/R with the sampled-median estimator (ablation path) must still
// produce sane recoveries.
func TestL2WithSampledMedianEstimator(t *testing.T) {
	const n, k = 10000, 64
	x := biasedGaussian(n, 90, 10, 28)
	l2 := NewL2SR(Config{N: n, K: k, Estimator: EstimatorSampledMedian, SampleCount: 256},
		rand.New(rand.NewSource(29)))
	feed(l2, x)
	if b := l2.Bias(); math.Abs(b-90) > 5 {
		t.Errorf("bias = %f, want ≈90", b)
	}
	// Bucket noise after de-biasing is ~sqrt(n/s)·σ ≈ 63·... ≈ 20 per
	// row; the row median brings the average below that.
	if err := vecmath.AvgAbsErr(x, sketch.Recover(l2)); err > 25 {
		t.Errorf("avg err %f too large", err)
	}
}

// Bias independence (Figure 1c–1d): the recovery error of the
// bias-aware sketches must not grow with the bias magnitude.
func TestErrorIndependentOfBias(t *testing.T) {
	const n, k = 20000, 32
	errAt := func(bias float64, seed int64) (float64, float64) {
		x := biasedGaussian(n, bias, 15, seed)
		l1 := NewL1SR(Config{N: n, K: k, SampleCount: 4 * k}, rand.New(rand.NewSource(seed+100)))
		l2 := NewL2SR(Config{N: n, K: k}, rand.New(rand.NewSource(seed+200)))
		feed(l1, x)
		feed(l2, x)
		return vecmath.AvgAbsErr(x, sketch.Recover(l1)), vecmath.AvgAbsErr(x, sketch.Recover(l2))
	}
	l1a, l2a := errAt(100, 30)
	l1b, l2b := errAt(500, 30)
	if l1b > 2*l1a+1 {
		t.Errorf("ℓ1 error grew with bias: %f -> %f", l1a, l1b)
	}
	if l2b > 2*l2a+1 {
		t.Errorf("ℓ2 error grew with bias: %f -> %f", l2a, l2b)
	}
}

func BenchmarkL1Update(b *testing.B) {
	l := NewL1SR(Config{N: 1 << 20, K: 256}, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Update(i&(1<<20-1), 1)
	}
}

// BenchmarkL2Update streams updates into a replica that is never read
// (it only adds into the bucket masses) and into one that was read
// first (the Bias-Heap keeps its order per update).
func BenchmarkL2Update(b *testing.B) {
	for _, read := range []bool{false, true} {
		name := "unsettled"
		if read {
			name = "settled"
		}
		b.Run(name, func(b *testing.B) {
			l := NewL2SR(Config{N: 1 << 20, K: 256}, rand.New(rand.NewSource(1)))
			if read {
				l.Bias()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Update(i&(1<<20-1), 1)
			}
		})
	}
}

func BenchmarkL2Query(b *testing.B) {
	l := NewL2SR(Config{N: 1 << 18, K: 256}, rand.New(rand.NewSource(1)))
	for i := 0; i < 1<<18; i++ {
		l.Update(i, 100)
	}
	// Settle the replica and warm the ψ caches once so the benchmark
	// measures queries.
	l.Query(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Query(i & (1<<18 - 1))
	}
}
