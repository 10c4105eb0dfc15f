package heavyhitter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// fullScan hides a sketch's key lists and range scan: its lists
// refuse and its range scan keeps every key, so TopK and Scan run the
// full batched scan over it — the oracle of the pruned scans.
type fullScan struct{ BiasedSketch }

func (f fullScan) ScanRange(lo, hi int, _ float64, idx []int, out []float64) int {
	for j := range hi - lo {
		idx[j] = lo + j
	}
	f.QueryBatch(idx[:hi-lo], out[:hi-lo])
	return hi - lo
}

func (fullScan) SeedKeys(_, _ int, dst []int) ([]int, bool)           { return dst, false }
func (fullScan) Candidates(_ float64, _ int, dst []int) ([]int, bool) { return dst, false }

// sameDeviators reports whether two answers agree in every field, bit
// for bit.
func sameDeviators(a, b []Deviator) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index ||
			math.Float64bits(a[i].Estimate) != math.Float64bits(b[i].Estimate) ||
			math.Float64bits(a[i].Deviation) != math.Float64bits(b[i].Deviation) {
			return false
		}
	}
	return true
}

type updater interface {
	BiasedSketch
	Update(i int, delta float64)
}

var propertySketches = []struct {
	name string
	mk   func(n, k, d int, r *rand.Rand) updater
}{
	{"l1sr", func(n, k, d int, r *rand.Rand) updater {
		return core.NewL1SR(core.Config{N: n, K: k, Depth: d}, r)
	}},
	// l2sr-heap is read before its first update, so its Bias-Heap keeps
	// the order per update; l2sr-sort orders its buckets at the first
	// scan.
	{"l2sr-heap", func(n, k, d int, r *rand.Rand) updater {
		l := core.NewL2SR(core.Config{N: n, K: k, Depth: d}, r)
		l.Bias()
		return l
	}},
	{"l2sr-sort", func(n, k, d int, r *rand.Rand) updater {
		return core.NewL2SR(core.Config{N: n, K: k, Depth: d}, r)
	}},
	{"l1mean", func(n, k, d int, r *rand.Rand) updater {
		return core.NewL1SR(core.Config{N: n, K: k, Depth: d, SampleCount: 1, Estimator: core.EstimatorMean}, r)
	}},
	{"l2mean", func(n, k, d int, r *rand.Rand) updater {
		return core.NewL2SR(core.Config{N: n, K: k, Depth: d, Estimator: core.EstimatorMean}, r)
	}},
}

// drawDelta returns one update of the given kind: small integers,
// Gaussians, {−1, 0, 1}, or all ones (ties everywhere).
func drawDelta(kind int, r *rand.Rand) float64 {
	switch kind {
	case 0:
		return float64(1 + r.Intn(5))
	case 1:
		return 3 + 2*r.NormFloat64()
	case 2:
		return float64(r.Intn(3) - 1)
	default:
		return 1
	}
}

// TopK and Scan through the range scan answer exactly as the full scan
// does — every Deviator field, bit for bit — on every bias-aware
// sketch, at odd and even depths, for k below and at or above n, on
// integer, Gaussian, ternary and all-ones data with ±1e6 outliers, and
// at Scan thresholds that tie a reported deviation or prune nothing.
func TestPrunedScansMatchFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, sk := range propertySketches {
		t.Run(sk.name, func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				n := 1 + r.Intn(5000)
				d := 1 + r.Intn(12)
				kind := trial % 4
				s := sk.mk(n, 1+r.Intn(32), d, r)
				for u := 0; u < 2*n; u++ {
					s.Update(r.Intn(n), drawDelta(kind, r))
				}
				for o := r.Intn(4); o > 0; o-- {
					s.Update(r.Intn(n), 1e6*float64(1-2*r.Intn(2)))
				}
				shape := fmt.Sprintf("n=%d d=%d data=%d", n, d, kind)

				ks := []int{1 + r.Intn(40), n + r.Intn(3)}
				var top []Deviator
				for _, k := range ks {
					got, want := TopK(s, k), TopK(fullScan{s}, k)
					if !sameDeviators(got, want) {
						t.Fatalf("%s k=%d: TopK\n got %v\nwant %v", shape, k, got, want)
					}
					top = want
				}
				thresholds := []float64{0, -1}
				if len(top) > 0 {
					thresholds = append(thresholds, top[r.Intn(len(top))].Deviation, top[0].Deviation/2)
				}
				for _, th := range thresholds {
					if got, want := Scan(s, th), Scan(fullScan{s}, th); !sameDeviators(got, want) {
						t.Fatalf("%s threshold=%v: Scan\n got %v\nwant %v", shape, th, got, want)
					}
				}
			}
		})
	}
}

// contractScanner is a vector whose range scan drops every key its
// contract lets it drop: each key whose deviation is not above tau,
// NaN included, whenever tau is positive and finite. TopK and Scan
// must stay exact against the loosest scan they can be given.
type contractScanner struct{ exactSketch }

func (c contractScanner) ScanRange(lo, hi int, tau float64, idx []int, out []float64) int {
	prune := tau > 0 && !math.IsInf(tau, 1)
	m := 0
	for i := lo; i < hi; i++ {
		if prune && !(math.Abs(c.x[i]-c.beta) > tau) {
			continue
		}
		idx[m], out[m] = i, c.x[i]
		m++
	}
	return m
}

// The selection logic alone, with ties, near-ties, NaN and ±Inf
// estimates: a NaN pushed into TopK's heap before it fills must not
// let a later bound drop a key the full scan would admit.
func TestTopKExactUnderLoosestRangeScan(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(4*scanChunk)
		x := make([]float64, n)
		for i := range x {
			// Ties, and near-ties a hair apart.
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
		e := exactSketch{x: x, beta: float64(r.Intn(5))}
		k := 1 + r.Intn(40)
		if got, want := TopK(contractScanner{e}, k), TopK(e, k); !sameDeviators(got, want) {
			t.Fatalf("trial %d n=%d k=%d: TopK\n got %v\nwant %v", trial, n, k, got, want)
		}
		th := float64(r.Intn(30))
		if got, want := Scan(contractScanner{e}, th), Scan(e, th); !sameDeviators(got, want) {
			t.Fatalf("trial %d threshold %v: Scan\n got %v\nwant %v", trial, th, got, want)
		}
	}
}

// TopK's bound is its heap minimum exactly: with k=1, a later chunk's
// key a hair above the first chunk's best must win, and one that ties
// it must lose to the smaller index.
func TestTopKBoundIsHeapMinimum(t *testing.T) {
	x := make([]float64, 2*scanChunk)
	x[3] = 5
	x[scanChunk+5] = 5
	x[scanChunk+7] = math.Nextafter(5, 6)
	e := exactSketch{x: x}
	got, want := TopK(contractScanner{e}, 1), TopK(e, 1)
	if !sameDeviators(got, want) || got[0].Index != scanChunk+7 {
		t.Fatalf("TopK(1) = %v, want %v at index %d", got, want, scanChunk+7)
	}
}
