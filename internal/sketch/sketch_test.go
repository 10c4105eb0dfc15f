package sketch

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

func testCfg() Config { return Config{N: 10000, Rows: 256, Depth: 9} }

// gaussianVector builds a biased Gaussian vector like the paper's
// synthetic dataset (§5.1).
func gaussianVector(n int, bias, sigma float64, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Round(r.NormFloat64()*sigma + bias)
	}
	return x
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 0, Rows: 1, Depth: 1},
		{N: 1, Rows: 0, Depth: 1},
		{N: 1, Rows: 1, Depth: 0},
		{N: -5, Rows: 8, Depth: 2},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
	if (Config{N: 1, Rows: 1, Depth: 1}).Validate() != nil {
		t.Error("valid config rejected")
	}
}

func TestMedianOf(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{}, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		buf := append([]float64(nil), c.in...)
		if got := medianOf(buf); got != c.want {
			t.Errorf("medianOf(%v) = %f, want %f", c.in, got, c.want)
		}
	}
}

// every sketch must answer exact queries on a sparse vector that fits
// entirely in its buckets with no collisions of consequence.
func TestExactOnVerySparse(t *testing.T) {
	cfg := Config{N: 1000, Rows: 512, Depth: 9}
	r := rand.New(rand.NewSource(1))
	sketches := map[string]Sketch{
		"countmin":    must(NewCountMin(cfg, r)),
		"countmedian": must(NewCountMedian(cfg, r)),
		"countsketch": must(NewCountSketch(cfg, r)),
		"cmcu":        must(NewCMCU(cfg, r)),
		"dengrafiei":  must(NewDengRafiei(cfg, r)),
	}
	for name, s := range sketches {
		s.Update(7, 42)
		got := s.Query(7)
		if math.Abs(got-42) > 1 {
			t.Errorf("%s: Query(7) = %f, want ~42", name, got)
		}
		if g := s.Query(8); math.Abs(g) > 1 {
			t.Errorf("%s: Query(8) = %f, want ~0", name, g)
		}
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cfg := Config{N: 5000, Rows: 64, Depth: 5}
	r := rand.New(rand.NewSource(2))
	cm := must(NewCountMin(cfg, r))
	x := make([]float64, cfg.N)
	for i := 0; i < 20000; i++ {
		j := r.Intn(cfg.N)
		x[j]++
		cm.Update(j, 1)
	}
	for i := 0; i < cfg.N; i++ {
		if cm.Query(i) < x[i]-1e-9 {
			t.Fatalf("Count-Min underestimated x[%d]: %f < %f", i, cm.Query(i), x[i])
		}
	}
}

func TestCMCUNeverUnderestimatesAndBeatsCM(t *testing.T) {
	cfg := Config{N: 5000, Rows: 64, Depth: 5}
	r := rand.New(rand.NewSource(3))
	cm := must(NewCountMin(cfg, rand.New(rand.NewSource(4))))
	cu := must(NewCMCU(cfg, rand.New(rand.NewSource(4))))
	x := make([]float64, cfg.N)
	zipf := rand.NewZipf(r, 1.3, 1, uint64(cfg.N-1))
	for i := 0; i < 50000; i++ {
		j := int(zipf.Uint64())
		x[j]++
		cm.Update(j, 1)
		cu.Update(j, 1)
	}
	var cmErr, cuErr float64
	for i := 0; i < cfg.N; i++ {
		if cu.Query(i) < x[i]-1e-9 {
			t.Fatalf("CM-CU underestimated x[%d]", i)
		}
		cmErr += cm.Query(i) - x[i]
		cuErr += cu.Query(i) - x[i]
	}
	if cuErr > cmErr {
		t.Errorf("CM-CU total overestimate %f should not exceed CM %f", cuErr, cmErr)
	}
}

func TestCMCURejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative update")
		}
	}()
	must(NewCMCU(testCfg(), rand.New(rand.NewSource(5)))).Update(0, -1)
}

func TestCMLCURejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative update")
		}
	}()
	must(NewCMLCU(testCfg(), DefaultCMLBase, rand.New(rand.NewSource(5)))).Update(0, -1)
}

func TestCMLCURejectsBadBase(t *testing.T) {
	if _, err := NewCMLCU(testCfg(), 1.0, rand.New(rand.NewSource(5))); !errors.Is(err, ErrConfig) {
		t.Fatalf("base <= 1: got %v, want ErrConfig", err)
	}
}

func TestCMLCUApproximatesCounts(t *testing.T) {
	cfg := Config{N: 2000, Rows: 512, Depth: 7}
	r := rand.New(rand.NewSource(6))
	cml := must(NewCMLCU(cfg, DefaultCMLBase, r))
	// Large-ish counts on a few coordinates; base 1.00025 counters are
	// near-linear so relative error should be small.
	counts := map[int]float64{3: 1000, 77: 5000, 500: 250}
	for i, c := range counts {
		for j := 0; j < int(c); j++ {
			cml.Update(i, 1)
		}
	}
	for i, c := range counts {
		got := cml.Query(i)
		if math.Abs(got-c)/c > 0.05 {
			t.Errorf("CML-CU Query(%d) = %f, want within 5%% of %f", i, got, c)
		}
	}
}

func TestCMLCUWeightedMatchesUnit(t *testing.T) {
	cfg := Config{N: 100, Rows: 64, Depth: 5}
	unit := must(NewCMLCU(cfg, DefaultCMLBase, rand.New(rand.NewSource(7))))
	weighted := must(NewCMLCU(cfg, DefaultCMLBase, rand.New(rand.NewSource(7))))
	for j := 0; j < 2000; j++ {
		unit.Update(5, 1)
	}
	weighted.Update(5, 2000)
	u, w := unit.Query(5), weighted.Query(5)
	if math.Abs(u-w)/2000 > 0.02 {
		t.Errorf("unit-increment %f and weighted %f disagree beyond 2%%", u, w)
	}
}

// Theorem 1: Count-Median error bounded by O(1/k)·Err_1^k(x). We check
// the empirical max error is within a generous constant of the bound.
func TestCountMedianErrorBound(t *testing.T) {
	n, k := 20000, 32
	cfg := Config{N: n, Rows: 8 * k, Depth: 11}
	r := rand.New(rand.NewSource(8))
	x := make([]float64, n)
	// k-ish heavy coordinates + light tail.
	for i := 0; i < k; i++ {
		x[r.Intn(n)] += 10000
	}
	for i := 0; i < n/10; i++ {
		x[r.Intn(n)] += 1
	}
	cm := must(NewCountMedian(cfg, r))
	SketchVector(cm, x)
	xhat := Recover(cm)
	bound := vecmath.ErrK(x, k, 1) / float64(k)
	// With d = 11 rows the per-coordinate failure probability is small
	// but not 1/n, so a handful of the 20000 coordinates may be
	// contaminated by a heavy collision; check the bulk (99.5%) of
	// coordinates obey the Theorem 1 bound instead of the strict max.
	errs := make([]float64, n)
	for i := range errs {
		errs[i] = math.Abs(x[i] - xhat[i])
	}
	if got := vecmath.Percentile(errs, 0.995); got > 4*bound+1e-9 {
		t.Errorf("Count-Median P99.5 error %f exceeds 4×bound %f", got, 4*bound)
	}
}

// Theorem 2: Count-Sketch error bounded by O(1/√k)·Err_2^k(x).
func TestCountSketchErrorBound(t *testing.T) {
	n, k := 20000, 32
	cfg := Config{N: n, Rows: 8 * k, Depth: 11}
	r := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	for i := 0; i < k; i++ {
		x[r.Intn(n)] += 10000
	}
	for i := range x {
		x[i] += math.Round(r.Float64() * 3)
	}
	cs := must(NewCountSketch(cfg, r))
	SketchVector(cs, x)
	xhat := Recover(cs)
	bound := vecmath.ErrK(x, k, 2) / math.Sqrt(float64(k))
	errs := make([]float64, n)
	for i := range errs {
		errs[i] = math.Abs(x[i] - xhat[i])
	}
	if got := vecmath.Percentile(errs, 0.995); got > 4*bound+1e-9 {
		t.Errorf("Count-Sketch P99.5 error %f exceeds 4×bound %f", got, 4*bound)
	}
}

// Linearity: sketching a stream split across two sketches and merging
// must equal sketching the whole stream (exact cell equality).
func TestLinearityMergeEqualsWhole(t *testing.T) {
	cfg := Config{N: 3000, Rows: 128, Depth: 7}
	seed := int64(10)
	builders := []struct {
		name string
		mk   func(int64) Linear
	}{
		{"countmin", func(s int64) Linear { return must(NewCountMin(cfg, rand.New(rand.NewSource(s)))) }},
		{"countmedian", func(s int64) Linear { return must(NewCountMedian(cfg, rand.New(rand.NewSource(s)))) }},
		{"countsketch", func(s int64) Linear { return must(NewCountSketch(cfg, rand.New(rand.NewSource(s)))) }},
		{"dengrafiei", func(s int64) Linear { return must(NewDengRafiei(cfg, rand.New(rand.NewSource(s)))) }},
	}
	r := rand.New(rand.NewSource(11))
	type upd struct {
		i int
		d float64
	}
	stream := make([]upd, 5000)
	for i := range stream {
		stream[i] = upd{r.Intn(cfg.N), float64(r.Intn(20) - 5)}
	}
	for _, b := range builders {
		whole := b.mk(seed)
		left := b.mk(seed)
		right := b.mk(seed)
		for i, u := range stream {
			whole.Update(u.i, u.d)
			if i%2 == 0 {
				left.Update(u.i, u.d)
			} else {
				right.Update(u.i, u.d)
			}
		}
		if err := left.MergeFrom(right); err != nil {
			t.Fatalf("%s: MergeFrom: %v", b.name, err)
		}
		for i := 0; i < cfg.N; i += 37 {
			if w, m := whole.Query(i), left.Query(i); math.Abs(w-m) > 1e-9 {
				t.Fatalf("%s: merged query %f != whole %f at %d", b.name, m, w, i)
			}
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	cfg := testCfg()
	a := must(NewCountMedian(cfg, rand.New(rand.NewSource(12))))
	b := must(NewCountMedian(cfg, rand.New(rand.NewSource(13)))) // different seeds
	if err := a.MergeFrom(b); err != ErrIncompatible {
		t.Errorf("merging different hash seeds should fail, got %v", err)
	}
	cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(12))))
	if err := a.MergeFrom(cs); err != ErrIncompatible {
		t.Errorf("merging different types should fail, got %v", err)
	}
	cfg2 := cfg
	cfg2.Rows *= 2
	c := must(NewCountMedian(cfg2, rand.New(rand.NewSource(12))))
	if err := a.MergeFrom(c); err != ErrIncompatible {
		t.Errorf("merging different shapes should fail, got %v", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	cfg := Config{N: 500, Rows: 32, Depth: 5}
	a := must(NewCountMedian(cfg, rand.New(rand.NewSource(14))))
	for i := 0; i < 1000; i++ {
		a.Update(i%cfg.N, float64(i%7))
	}
	b := must(NewCountMedian(cfg, rand.New(rand.NewSource(14))))
	if err := b.Unmarshal(a.Marshal()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i++ {
		if a.Query(i) != b.Query(i) {
			t.Fatalf("round-trip query mismatch at %d", i)
		}
	}
	if err := b.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("short payload should fail")
	}
}

// cmcu and cmlcu are not linear (no merge) but do checkpoint: their
// Unmarshal paths restore exactly, and a truncated dengrafiei payload
// is rejected.
func TestNonLinearUnmarshal(t *testing.T) {
	cfg := Config{N: 200, Rows: 16, Depth: 3}
	cu := must(NewCMCU(cfg, rand.New(rand.NewSource(5))))
	lu := must(NewCMLCU(cfg, DefaultCMLBase, rand.New(rand.NewSource(5))))
	for i := 0; i < 800; i++ {
		cu.Update(i%cfg.N, float64(1+i%3))
		lu.Update(i%cfg.N, float64(1+i%3))
	}
	cu2 := must(NewCMCU(cfg, rand.New(rand.NewSource(5))))
	if err := cu2.Unmarshal(cu.Marshal()); err != nil {
		t.Fatal(err)
	}
	lu2 := must(NewCMLCU(cfg, DefaultCMLBase, rand.New(rand.NewSource(5))))
	if err := lu2.Unmarshal(lu.Marshal()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i += 7 {
		if cu.Query(i) != cu2.Query(i) {
			t.Fatalf("cmcu restore: Query(%d) disagrees", i)
		}
		if lu.Query(i) != lu2.Query(i) {
			t.Fatalf("cmlcu restore: Query(%d) disagrees", i)
		}
	}

	dr := must(NewDengRafiei(cfg, rand.New(rand.NewSource(6))))
	for i := 0; i < 500; i++ {
		dr.Update(i%cfg.N, 2)
	}
	dr2 := must(NewDengRafiei(cfg, rand.New(rand.NewSource(6))))
	if err := dr2.Unmarshal(dr.Marshal()); err != nil {
		t.Fatal(err)
	}
	if dr.Query(3) != dr2.Query(3) {
		t.Error("dengrafiei restore: query disagrees")
	}
	if err := dr2.Unmarshal([]byte{1, 2}); err == nil {
		t.Error("truncated dengrafiei payload should be rejected")
	}
}

func TestCountSketchMarshalRoundTrip(t *testing.T) {
	cfg := Config{N: 500, Rows: 32, Depth: 5}
	a := must(NewCountSketch(cfg, rand.New(rand.NewSource(15))))
	for i := 0; i < 1000; i++ {
		a.Update(i%cfg.N, 1)
	}
	b := must(NewCountSketch(cfg, rand.New(rand.NewSource(15))))
	if err := b.Unmarshal(a.Marshal()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i += 13 {
		if a.Query(i) != b.Query(i) {
			t.Fatalf("round-trip query mismatch at %d", i)
		}
	}
}

func TestWords(t *testing.T) {
	cfg := Config{N: 100, Rows: 64, Depth: 9}
	r := rand.New(rand.NewSource(16))
	if w := must(NewCountMedian(cfg, r)).Words(); w != 576 {
		t.Errorf("CountMedian.Words = %d, want 576", w)
	}
	if w := must(NewDengRafiei(cfg, r)).Words(); w != 577 {
		t.Errorf("DengRafiei.Words = %d, want 577", w)
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	s := must(NewCountMedian(Config{N: 10, Rows: 8, Depth: 3}, rand.New(rand.NewSource(17))))
	for _, idx := range []int{-1, 10, 999} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Update(%d) should panic", idx)
				}
			}()
			s.Update(idx, 1)
		}()
	}
}

func TestSketchVectorLengthMismatchErrors(t *testing.T) {
	cm := must(NewCountMin(Config{N: 10, Rows: 8, Depth: 3}, rand.New(rand.NewSource(18))))
	if err := SketchVector(cm, make([]float64, 5)); err == nil {
		t.Fatal("length mismatch should return an error")
	}
	// No update may have been applied before the mismatch was caught.
	for i := 0; i < 10; i++ {
		if cm.Query(i) != 0 {
			t.Fatalf("sketch modified despite length mismatch: Query(%d) = %f", i, cm.Query(i))
		}
	}
	if err := SketchVector(cm, make([]float64, 10)); err != nil {
		t.Fatalf("matching length: %v", err)
	}
}

// DengRafiei should beat plain Count-Min on biased data (its entire
// purpose), even if it cannot reach bias-aware quality.
func TestDengRafieiBeatsCountMinOnBias(t *testing.T) {
	n := 20000
	cfg := Config{N: n, Rows: 256, Depth: 9}
	x := gaussianVector(n, 100, 15, 19)
	cm := must(NewCountMin(cfg, rand.New(rand.NewSource(20))))
	dr := must(NewDengRafiei(cfg, rand.New(rand.NewSource(20))))
	SketchVector(cm, x)
	SketchVector(dr, x)
	cmErr := vecmath.AvgAbsErr(x, Recover(cm))
	drErr := vecmath.AvgAbsErr(x, Recover(dr))
	if drErr >= cmErr {
		t.Errorf("DengRafiei avg err %f should beat Count-Min %f on biased data", drErr, cmErr)
	}
}

func BenchmarkCountMedianUpdate(b *testing.B) {
	s := must(NewCountMedian(Config{N: 1 << 20, Rows: 1024, Depth: 9}, rand.New(rand.NewSource(1))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(i&(1<<20-1), 1)
	}
}

func BenchmarkCountSketchUpdate(b *testing.B) {
	s := must(NewCountSketch(Config{N: 1 << 20, Rows: 1024, Depth: 9}, rand.New(rand.NewSource(1))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(i&(1<<20-1), 1)
	}
}

func BenchmarkCountSketchQuery(b *testing.B) {
	s := must(NewCountSketch(Config{N: 1 << 20, Rows: 1024, Depth: 9}, rand.New(rand.NewSource(1))))
	for i := 0; i < 1<<16; i++ {
		s.Update(i, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(i & (1<<20 - 1))
	}
}

func BenchmarkCMCUUpdate(b *testing.B) {
	s := must(NewCMCU(Config{N: 1 << 20, Rows: 1024, Depth: 9}, rand.New(rand.NewSource(1))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(i&(1<<20-1), 1)
	}
}
