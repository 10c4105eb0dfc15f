package workload

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

func TestPoissonMoments(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, lambda := range []float64{0.5, 4, 25, 100, 5000} {
		const n = 20000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			v := Poisson(r, lambda)
			if v < 0 {
				t.Fatalf("negative Poisson draw %f", v)
			}
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.5 {
			t.Errorf("lambda=%g: mean %f", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.2*lambda+1 {
			t.Errorf("lambda=%g: variance %f", lambda, variance)
		}
	}
	if Poisson(r, 0) != 0 || Poisson(r, -3) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

func TestGammaMoments(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, c := range []struct{ shape, scale float64 }{{0.5, 2}, {2, 0.5}, {9, 3}} {
		const n = 40000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			v := Gamma(r, c.shape, c.scale)
			if v < 0 {
				t.Fatalf("negative Gamma draw")
			}
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean {
			t.Errorf("shape=%g scale=%g: mean %f, want %f", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar {
			t.Errorf("shape=%g scale=%g: var %f, want %f", c.shape, c.scale, variance, wantVar)
		}
	}
	if Gamma(r, 0, 1) != 0 || Gamma(r, 1, -1) != 0 {
		t.Error("degenerate Gamma params should give 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 30000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = LogNormal(r, math.Log(12), 0.7)
	}
	sort.Float64s(vals)
	med := vals[n/2]
	if math.Abs(med-12) > 1 {
		t.Errorf("log-normal median %f, want ≈12", med)
	}
}

func TestGaussianVector(t *testing.T) {
	g := Gaussian{Bias: 100, Sigma: 15}
	x := g.Vector(50000, rand.New(rand.NewSource(4)))
	if math.Abs(vecmath.Mean(x)-100) > 1 {
		t.Errorf("mean %f", vecmath.Mean(x))
	}
	sd := math.Sqrt(vecmath.Variance(x))
	if math.Abs(sd-15) > 1 {
		t.Errorf("sd %f", sd)
	}
	if g.Name() == "" {
		t.Error("empty name")
	}
}

func TestGaussianShifted(t *testing.T) {
	g := GaussianShifted{Bias: 100, Sigma: 15, ShiftCount: 500, ShiftBy: 100000}
	n := 100000
	x := g.Vector(n, rand.New(rand.NewSource(5)))
	// Exactly 500 coordinates should exceed, say, 50000.
	big := 0
	for _, v := range x {
		if v > 50000 {
			big++
		}
	}
	if big != 500 {
		t.Errorf("%d shifted coordinates, want 500", big)
	}
	// The optimal bias stays ≈100 despite the shift (that is the
	// point of Figure 8).
	beta, _ := vecmath.MinBetaErrK(x, 500, 1)
	if math.Abs(beta-100) > 5 {
		t.Errorf("optimal bias %f, want ≈100", beta)
	}
}

func TestGaussianShiftedClampsCount(t *testing.T) {
	g := GaussianShifted{Bias: 0, Sigma: 1, ShiftCount: 50, ShiftBy: 10}
	x := g.Vector(10, rand.New(rand.NewSource(6)))
	if len(x) != 10 {
		t.Fatal("wrong dimension")
	}
}

func TestWorldCupLikeShape(t *testing.T) {
	w := WorldCupLike{}
	n := 86400
	x := w.Vector(n, rand.New(rand.NewSource(7)))
	if len(x) != n {
		t.Fatal("wrong dimension")
	}
	for i, v := range x {
		if v < 0 {
			t.Fatalf("negative request count at %d", i)
		}
	}
	mean := vecmath.Mean(x)
	if mean < 20 || mean > 80 {
		t.Errorf("mean rate %f out of plausible band", mean)
	}
	// Bursts create a head: max should be far above the mean.
	if vecmath.NormInf(x) < 5*mean {
		t.Error("expected bursty head")
	}
}

func TestWikiLikeHighBias(t *testing.T) {
	w := WikiLike{}
	x := w.Vector(200000, rand.New(rand.NewSource(8)))
	mean := vecmath.Mean(x)
	if mean < 3000 || mean > 4500 {
		t.Errorf("mean %f, want ≈3700", mean)
	}
	// Relative dispersion must be small outside events — the defining
	// property of Wiki (large bias, small noise): the optimal ℓ1 bias
	// residual is far below the raw tail mass.
	k := 2000
	_, biased := vecmath.MinBetaErrK(x, k, 1)
	raw := vecmath.ErrK(x, k, 1)
	if biased > raw/4 {
		t.Errorf("bias should explain most of the mass: residual %f vs raw %f", biased, raw)
	}
}

func TestHiggsLikeNonNegativeSkewed(t *testing.T) {
	h := HiggsLike{}
	x := h.Vector(100000, rand.New(rand.NewSource(9)))
	var neg int
	for _, v := range x {
		if v < 0 {
			neg++
		}
	}
	if neg > 0 {
		t.Fatalf("%d negative values", neg)
	}
	mean := vecmath.Mean(x)
	med := vecmath.Median(x)
	if mean <= med {
		t.Errorf("right-skew expected: mean %f should exceed median %f", mean, med)
	}
}

func TestMemeLikeLengths(t *testing.T) {
	m := MemeLike{}
	x := m.Vector(100000, rand.New(rand.NewSource(10)))
	for i, v := range x {
		if v < 1 || v != math.Round(v) {
			t.Fatalf("length at %d is %f, want integer >= 1", i, v)
		}
	}
	med := vecmath.Median(x)
	if med < 8 || med > 16 {
		t.Errorf("median length %f, want ≈12", med)
	}
	// Long tail: P99.9 well above the median.
	if p := vecmath.Percentile(x, 0.999); p < 4*med {
		t.Errorf("tail too short: P99.9 %f vs median %f", p, med)
	}
}

func TestHudongLikeStream(t *testing.T) {
	h := HudongLike{}
	n := 20000
	stream := h.EdgeStream(n, rand.New(rand.NewSource(11)))
	wantEdges := int(float64(n) * 7.7)
	if len(stream) != wantEdges {
		t.Fatalf("stream length %d, want %d", len(stream), wantEdges)
	}
	deg := make([]float64, n)
	for _, s := range stream {
		if s < 0 || s >= n {
			t.Fatalf("edge source %d out of range", s)
		}
		deg[s]++
	}
	// Power law: the max out-degree should be far above the mean.
	mean := vecmath.Mean(deg)
	if vecmath.NormInf(deg) < 10*mean {
		t.Errorf("expected heavy-tailed degrees: max %f mean %f", vecmath.NormInf(deg), mean)
	}
	// Vector() must agree with accumulating the stream distribution-wise.
	x := h.Vector(n, rand.New(rand.NewSource(11)))
	if vecmath.Norm1(x) != float64(wantEdges) {
		t.Errorf("vector mass %f, want %d", vecmath.Norm1(x), wantEdges)
	}
}

func TestAllGeneratorsNamed(t *testing.T) {
	gens := []Generator{
		Gaussian{Bias: 1, Sigma: 1},
		GaussianShifted{},
		WorldCupLike{},
		WikiLike{},
		HiggsLike{},
		MemeLike{},
		HudongLike{},
	}
	seen := map[string]bool{}
	for _, g := range gens {
		name := g.Name()
		if name == "" {
			t.Errorf("%T has empty name", g)
		}
		if seen[name] {
			t.Errorf("duplicate generator name %q", name)
		}
		seen[name] = true
		x := g.Vector(100, rand.New(rand.NewSource(12)))
		if len(x) != 100 {
			t.Errorf("%s: wrong dimension", name)
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	g := WorldCupLike{}
	a := g.Vector(1000, rand.New(rand.NewSource(13)))
	b := g.Vector(1000, rand.New(rand.NewSource(13)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same vector")
		}
	}
}

func TestReadVector(t *testing.T) {
	x, err := ReadVector(strings.NewReader("1.5\n\n-2\n3e2\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, -2, 300}
	if len(x) != 3 {
		t.Fatalf("len = %d", len(x))
	}
	for i := range want {
		if x[i] != want[i] {
			t.Errorf("x[%d] = %f, want %f", i, x[i], want[i])
		}
	}
	if _, err := ReadVector(strings.NewReader("abc\n")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadVector(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
}

func TestReadVectorFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.txt")
	if err := os.WriteFile(path, []byte("7\n8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := ReadVectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 2 || x[0] != 7 || x[1] != 8 {
		t.Errorf("got %v", x)
	}
	if _, err := ReadVectorFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestZipfLike(t *testing.T) {
	z := ZipfLike{}
	n := 50000
	x := z.Vector(n, rand.New(rand.NewSource(14)))
	if vecmath.Norm1(x) != float64(10*n) {
		t.Errorf("mass %f, want %d", vecmath.Norm1(x), 10*n)
	}
	// Heavy head: the max count dwarfs the mean.
	if vecmath.NormInf(x) < 100*vecmath.Mean(x) {
		t.Errorf("Zipf head too light: max %f mean %f", vecmath.NormInf(x), vecmath.Mean(x))
	}
	if z.Name() != "zipf-like" {
		t.Error("bad name")
	}
	st := z.Stream(100, 5000, rand.New(rand.NewSource(15)))
	if len(st) != 5000 {
		t.Fatalf("stream length %d", len(st))
	}
	for _, v := range st {
		if v < 0 || v >= 100 {
			t.Fatalf("stream item %d out of range", v)
		}
	}
}

// Stream draws the item sequence itself for streaming experiments.
func (z ZipfLike) Stream(n, length int, r *rand.Rand) []int {
	s := z.S
	if s == 0 {
		s = 1.2
	}
	zf := rand.NewZipf(r, s, 1, uint64(n-1))
	out := make([]int, length)
	for i := range out {
		out[i] = int(zf.Uint64())
	}
	return out
}
