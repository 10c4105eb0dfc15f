package heavyhitter

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/workload"
)

// plant returns a biased Gaussian vector with planted outliers at
// known positions.
func plant(n int, seed int64, outliers map[int]float64) []float64 {
	x := workload.Gaussian{Bias: 100, Sigma: 10}.Vector(n, rand.New(rand.NewSource(seed)))
	for i, v := range outliers {
		x[i] = v
	}
	return x
}

func buildL2(x []float64, k int, seed int64) *core.L2SR {
	l2 := core.NewL2SR(core.L2Config{N: len(x), K: k, UseBiasHeap: true},
		rand.New(rand.NewSource(seed)))
	sketch.SketchVector(l2, x)
	return l2
}

func TestScanFindsPlanted(t *testing.T) {
	outliers := map[int]float64{100: 50_000, 2000: -30_000, 7777: 90_000}
	x := plant(20_000, 1, outliers)
	l2 := buildL2(x, 256, 2)
	got := Scan(l2, 10_000)
	found := map[int]bool{}
	for _, d := range got {
		found[d.Index] = true
		if d.Deviation <= 10_000 {
			t.Errorf("reported deviator %d below threshold: %f", d.Index, d.Deviation)
		}
	}
	for i := range outliers {
		if !found[i] {
			t.Errorf("planted outlier %d not found", i)
		}
	}
	// Sorted by decreasing deviation.
	for i := 1; i < len(got); i++ {
		if got[i].Deviation > got[i-1].Deviation {
			t.Fatal("Scan output not sorted")
		}
	}
}

func TestScanNoFalseAlarmOnClean(t *testing.T) {
	x := plant(20_000, 3, nil)
	l2 := buildL2(x, 256, 4)
	if got := Scan(l2, 10_000); len(got) != 0 {
		t.Errorf("clean data produced %d deviators above 10000", len(got))
	}
}

func TestTopKOrderAndContent(t *testing.T) {
	outliers := map[int]float64{5: 100_000, 50: 80_000, 500: 60_000, 5000: 40_000}
	x := plant(20_000, 5, outliers)
	l2 := buildL2(x, 256, 6)
	got := TopK(l2, 4)
	if len(got) != 4 {
		t.Fatalf("TopK returned %d", len(got))
	}
	wantOrder := []int{5, 50, 500, 5000}
	for i, w := range wantOrder {
		if got[i].Index != w {
			t.Errorf("TopK[%d] = %d, want %d", i, got[i].Index, w)
		}
	}
}

func TestTopKDegenerate(t *testing.T) {
	x := plant(2000, 7, nil)
	l2 := buildL2(x, 64, 8)
	if TopK(l2, 0) != nil {
		t.Error("TopK(0) should be nil")
	}
	if got := TopK(l2, 3000); len(got) != 2000 {
		t.Errorf("TopK(k>n) returned %d, want n=2000", len(got))
	}
}

// exactSketch adapts a plain vector to BiasedSketch for deterministic
// unit tests of the selection logic.
type exactSketch struct {
	x    []float64
	beta float64
}

func (e exactSketch) Query(i int) float64 { return e.x[i] }
func (e exactSketch) Bias() float64       { return e.beta }
func (e exactSketch) Dim() int            { return len(e.x) }

func TestScanExactTieBreak(t *testing.T) {
	e := exactSketch{x: []float64{0, 5, -5, 9, 0}, beta: 0}
	got := Scan(e, 4)
	want := []int{3, 1, 2} // dev 9, then 5 and 5 (tie → smaller index first)
	if len(got) != 3 {
		t.Fatalf("got %d deviators", len(got))
	}
	for i, w := range want {
		if got[i].Index != w {
			t.Errorf("Scan[%d] = %d, want %d", i, got[i].Index, w)
		}
	}
}

func TestTopKExact(t *testing.T) {
	e := exactSketch{x: []float64{1, -10, 3, 10, 0}, beta: 0}
	got := TopK(e, 2)
	if got[0].Index != 1 && got[0].Index != 3 {
		t.Errorf("TopK[0] = %+v", got[0])
	}
	if math.Abs(got[0].Deviation-10) > 1e-12 || math.Abs(got[1].Deviation-10) > 1e-12 {
		t.Errorf("TopK deviations %f %f, want 10 10", got[0].Deviation, got[1].Deviation)
	}
	// Tie at deviation 10: smaller index first.
	if got[0].Index != 1 || got[1].Index != 3 {
		t.Errorf("tie-break order wrong: %d then %d", got[0].Index, got[1].Index)
	}
}

func BenchmarkScan(b *testing.B) {
	x := plant(100_000, 12, map[int]float64{77: 1e6})
	l2 := buildL2(x, 512, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scan(l2, 1e5)
	}
}
