package sketch

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// matrixRecovery is a ScanRecovery over explicit row values: row t of
// key i is vals[t][i]. It lets the kernel tests place values exactly
// on the bound, and NaN or ±Inf in any row.
type matrixRecovery struct{ vals [][]float64 }

func (m *matrixRecovery) GatherRow(t int, tile []int, o []float64, _ *QScratch) {
	for j, i := range tile {
		o[j] = m.vals[t][i]
	}
}

func (m *matrixRecovery) GatherMagRange(t, lo int, o []float64, _ *QScratch) {
	for j := range o {
		o[j] = math.Abs(m.vals[t][lo+j])
	}
}

func (m *matrixRecovery) Combine(vals []float64, sc *QScratch) float64 {
	return Median(vals) + sc.Bias
}

// checkScan runs ScanMedian over [lo, hi) and checks it against
// QueryBatchMedian over the whole range: the survivors ascend, their
// estimates are the full answer's bit for bit, every key whose
// deviation exceeds tau survives, and a tau that is not positive and
// finite drops no key.
func checkScan(t *testing.T, m *matrixRecovery, lo, hi int, tau, bias float64) {
	t.Helper()
	depth := len(m.vals)
	full := make([]int, hi-lo)
	want := make([]float64, hi-lo)
	for j := range full {
		full[j] = lo + j
	}
	QueryBatchMedian(depth, full, want, bias, m)

	idx := make([]int, hi-lo)
	out := make([]float64, hi-lo)
	n := ScanMedian(depth, lo, hi, tau, bias, m, idx, out)
	kept := make(map[int]bool, n)
	for j, i := range idx[:n] {
		if i < lo || i >= hi || j > 0 && i <= idx[j-1] {
			t.Fatalf("survivors %v not ascending within [%d,%d)", idx[:n], lo, hi)
		}
		kept[i] = true
		if math.Float64bits(out[j]) != math.Float64bits(want[i-lo]) {
			t.Fatalf("key %d: scan estimate %v, QueryBatchMedian %v", i, out[j], want[i-lo])
		}
	}
	if !(tau > 0) || math.IsInf(tau, 0) {
		if n != hi-lo {
			t.Fatalf("tau %v dropped %d of %d keys", tau, hi-lo-n, hi-lo)
		}
	}
	for j, est := range want {
		if dev := math.Abs(est - bias); dev > tau && !kept[lo+j] {
			t.Fatalf("d=%d tau=%v bias=%v: dropped key %d with deviation %v (rows %v)",
				depth, tau, bias, lo+j, dev, column(m, lo+j))
		}
	}
}

func column(m *matrixRecovery, i int) []float64 {
	col := make([]float64, len(m.vals))
	for t := range col {
		col[t] = m.vals[t][i]
	}
	return col
}

// randomMatrix draws depth rows of n values from one of several
// shapes: small integers (ties), Gaussians, a few ±1e6 outliers, and
// optionally NaN and ±Inf cells.
func randomMatrix(r *rand.Rand, depth, n int, nonFinite bool) *matrixRecovery {
	kind := r.Intn(3)
	vals := make([][]float64, depth)
	for t := range vals {
		vals[t] = make([]float64, n)
		for i := range vals[t] {
			var v float64
			switch kind {
			case 0:
				v = float64(r.Intn(21) - 10)
			case 1:
				v = r.NormFloat64() * 50
			default:
				v = float64(r.Intn(3) - 1)
			}
			if r.Intn(50) == 0 {
				v = 1e6 * float64(1-2*r.Intn(2))
			}
			if nonFinite && r.Intn(40) == 0 {
				v = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
			}
			vals[t][i] = v
		}
	}
	return &matrixRecovery{vals: vals}
}

// ScanMedian keeps every key whose deviation exceeds tau and answers
// it exactly as QueryBatchMedian does, across odd and even depths,
// ties, outliers, non-finite cells, bounds taken from the keys' own
// deviations (boundary ties), and bounds that must drop nothing.
func TestScanMedianKeepsEveryKeyAboveBound(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 400; trial++ {
		depth := 1 + r.Intn(12)
		if trial%10 == 9 {
			depth = maxNetwork + 1 + r.Intn(4)
		}
		n := 1 + r.Intn(1200)
		m := randomMatrix(r, depth, n, trial%3 == 0)
		bias := []float64{0, 2.5, -7, 1e6, r.NormFloat64() * 100}[r.Intn(5)]
		lo := r.Intn(n)
		hi := lo + 1 + r.Intn(n-lo)

		full := make([]int, n)
		est := make([]float64, n)
		for i := range full {
			full[i] = i
		}
		QueryBatchMedian(depth, full, est, bias, m)
		devs := make([]float64, 0, n)
		for _, e := range est {
			if d := math.Abs(e - bias); !math.IsNaN(d) {
				devs = append(devs, d)
			}
		}
		slices.Sort(devs)
		taus := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64 / 2, 3, 0.5}
		if len(devs) > 0 {
			top := devs[len(devs)-1]
			taus = append(taus, devs[r.Intn(len(devs))], top/2, top, math.Nextafter(top, 0))
		}
		for _, tau := range taus {
			checkScan(t, m, lo, hi, tau, bias)
		}
	}
}

// A NaN row never rules a key out. Insertion sort, used below and
// beyond the sorting networks, leaves a NaN in place and sorts around
// it, so a key with ⌊d/2⌋+1 rows that are small or NaN can still have
// a large median: at d=3 the scan must keep it, and beyond maxNetwork
// rows, where NaN sits among rows it never reads, it must answer the
// whole range.
func TestScanMedianNaNRows(t *testing.T) {
	for _, col := range [][]float64{
		{math.NaN(), 100, math.NaN()},
		{100, 100, 100, 100, 100, 100, 100, 0, 0, math.NaN(), 0, 0, 0, 0, 0, 0, 0},
	} {
		if got := Median(slices.Clone(col)); got != 100 {
			t.Fatalf("median of %v = %v; the case needs 100", col, got)
		}
		m := &matrixRecovery{vals: make([][]float64, len(col))}
		for t0, v := range col {
			m.vals[t0] = []float64{v, 0}
		}
		checkScan(t, m, 0, 2, 50, 0)
	}
}

// The margin below the bound covers the rounding of (m + β̂) − β̂: a
// key whose rows all equal tau, under a bias of 1e6, deviates by
// fl(fl(0.3 + 1e6) − 1e6) > 0.3 and must be kept.
func TestScanMedianRoundingSlack(t *testing.T) {
	tau, bias := 0.3, 1e6
	if dev := math.Abs((tau + bias) - bias); !(dev > tau) {
		t.Fatalf("deviation %v does not round above %v; the case needs it to", dev, tau)
	}
	m := &matrixRecovery{vals: [][]float64{{tau}, {tau}, {tau}}}
	checkScan(t, m, 0, 1, tau, bias)
}

// A NaN or overflowing bias, or one so large that m + β̂ could
// overflow, drops no key.
func TestScanMedianHugeOrNaNBias(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(92)), 5, 300, false)
	for _, bias := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64 / 2, -math.MaxFloat64} {
		idx := make([]int, 300)
		out := make([]float64, 300)
		if n := ScanMedian(5, 0, 300, 1e300, bias, m, idx, out); n != 300 {
			t.Errorf("bias %v dropped %d keys", bias, 300-n)
		}
	}
}

// ScreenMedian over a list of keys, in any order, keeps exactly the
// keys ScanMedian keeps over the same range, on random matrices with
// ties, outliers and non-finite rows.
func TestScreenMedianMatchesScanMedian(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	for trial := 0; trial < 300; trial++ {
		depth := 1 + r.Intn(maxNetwork)
		n := 1 + r.Intn(700)
		m := randomMatrix(r, depth, n, trial%2 == 0)
		tau := []float64{0.5, 3, 9.5, 60, 5e5}[r.Intn(5)]
		bias := float64(r.Intn(7) - 3)
		idx := make([]int, n)
		out := make([]float64, n)
		want := idx[:ScanMedian(depth, 0, n, tau, bias, m, idx, out)]
		c, ok := ScreenBound(depth, tau, bias)
		if !ok {
			t.Fatalf("d=%d tau=%v bias=%v: bound refused", depth, tau, bias)
		}
		keys := r.Perm(n)
		got := keys[:ScreenMedian(depth, c, bias, m, keys)]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("d=%d n=%d tau=%v: ScreenMedian kept %v, ScanMedian %v", depth, n, tau, got, want)
		}
	}
	if n := ScreenMedian(5, 1, 0, &matrixRecovery{}, nil); n != 0 {
		t.Fatalf("an empty list kept %d keys", n)
	}
}

// ScreenBound refuses a bound that is not positive and finite, a bias
// or bound so large that m + β̂ could overflow, and more rows than a
// sorting network covers.
func TestScreenBoundGuards(t *testing.T) {
	for _, c := range []struct {
		depth     int
		tau, bias float64
		ok        bool
	}{
		{9, 10, 100, true},
		{maxNetwork, 10, 0, true},
		{maxNetwork + 1, 10, 0, false},
		{9, 0, 0, false},
		{9, -1, 0, false},
		{9, math.NaN(), 0, false},
		{9, math.Inf(1), 0, false},
		{9, math.MaxFloat64 / 2, 0, false},
		{9, 10, math.MaxFloat64 / 2, false},
		{9, 10, math.NaN(), false},
	} {
		if _, ok := ScreenBound(c.depth, c.tau, c.bias); ok != c.ok {
			t.Errorf("ScreenBound(%d, %v, %v) ok = %v, want %v", c.depth, c.tau, c.bias, ok, c.ok)
		}
	}
}
