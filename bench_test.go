// Package repro_test hosts the top-level benchmark suite: one
// testing.B benchmark per table/figure of the paper's evaluation (§5),
// each a scaled-down run of the corresponding internal/bench harness
// (custom metrics report the headline error ratios), plus the ablation
// benchmarks called out in DESIGN.md §4. Full-scale figure runs are
// produced by cmd/biasrepro.
package repro_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/biasheap"
	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/sketch"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// benchCfg is the scaled configuration used by the per-figure
// benchmarks. Depth stays at the paper's 9.
func benchCfg() bench.Config { return bench.Config{Scale: 0.01, Seed: 1} }

// reportRatio reports how many times larger the baseline's average
// error is than the bias-aware sketch's, averaged over sweep points —
// the headline quantity of each figure.
func reportRatio(b *testing.B, tables []*bench.Table, ours, baseline string) {
	var ratio float64
	var cells int
	for _, t := range tables {
		oi, bi := t.Col(ours), t.Col(baseline)
		if oi < 0 || bi < 0 {
			continue
		}
		for xi := range t.X {
			if t.Avg[xi][oi] > 0 {
				ratio += t.Avg[xi][bi] / t.Avg[xi][oi]
				cells++
			}
		}
	}
	if cells > 0 {
		b.ReportMetric(ratio/float64(cells), "x-vs-"+baseline)
	}
}

func BenchmarkFig1Gaussian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig1(benchCfg())
		reportRatio(b, tables, bench.AlgoL2SR, bench.AlgoCS)
		reportRatio(b, tables, bench.AlgoL1SR, bench.AlgoCM)
	}
}

func BenchmarkFig2Wiki(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig2(benchCfg())
		reportRatio(b, tables, bench.AlgoL2SR, bench.AlgoCS)
	}
}

func BenchmarkFig3WorldCup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig3(benchCfg())
		reportRatio(b, tables, bench.AlgoL2SR, bench.AlgoCM)
	}
}

func BenchmarkFig4Higgs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig4(benchCfg())
		reportRatio(b, tables, bench.AlgoL2SR, bench.AlgoCS)
	}
}

func BenchmarkFig5Meme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig5(benchCfg())
		reportRatio(b, tables, bench.AlgoL2SR, bench.AlgoCS)
	}
}

func BenchmarkFig6Hudong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig6(benchCfg())
		reportRatio(b, tables, bench.AlgoL2SR, bench.AlgoCS)
	}
}

func BenchmarkFig7Depth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig7(benchCfg())
		reportRatio(b, tables, bench.AlgoL2SR, bench.AlgoCS)
	}
}

func BenchmarkFig8MeanHeuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig8(benchCfg())
		// On the shifted variant the interesting ratio is mean-vs-S/R.
		reportRatio(b, tables[1:], bench.AlgoL2SR, bench.AlgoL2Mean)
	}
}

func BenchmarkFig9WikiMean(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig9(benchCfg())
		reportRatio(b, tables, bench.AlgoL2SR, bench.AlgoL2Mean)
	}
}

func BenchmarkExtraBOMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.ExtraBOMP(bench.Config{Seed: 1, Depth: 5})
		// Exactly-biased-sparse table: BOMP should be exact (avg 0);
		// report its decode-time penalty against l2-S/R full recovery.
		t := tables[0]
		bo, l2 := t.Col("BOMP"), t.Col(bench.AlgoL2SR)
		var ratio float64
		for xi := range t.X {
			if t.QueryNs[xi][l2] > 0 {
				ratio += t.QueryNs[xi][bo] / t.QueryNs[xi][l2]
			}
		}
		b.ReportMetric(ratio/float64(len(t.X)), "decode-slowdown")
	}
}

func BenchmarkExtraCounterBraids(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.ExtraCounterBraids(bench.Config{Seed: 1, Depth: 5})
		t := tables[0]
		cq, lq := t.Col("CB point-query ns"), t.Col("l2 point-query ns")
		var ratio float64
		for xi := range t.X {
			if t.Avg[xi][lq] > 0 {
				ratio += t.Avg[xi][cq] / t.Avg[xi][lq]
			}
		}
		b.ReportMetric(ratio/float64(len(t.X)), "point-query-slowdown")
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)

// BenchmarkAblationHash compares pairwise against 4-wise bucket
// hashing inside a minimal Count-Sketch. The paper argues (§4.4) that
// 2-wise independence suffices for the error bounds, and the bounds do
// hold for both; on *sequential* coordinate ids (as here) the affine
// 2-wise hash is actually measurably better than 4-wise, a known
// low-discrepancy artifact — an arithmetic progression mod s spreads
// dense key ranges more evenly than truly random placement. The
// 4-wise number is the honest "random hashing" reference; see
// EXPERIMENTS.md.
func BenchmarkAblationHash(b *testing.B) {
	const n, s, d = 100_000, 1024, 9
	r := rand.New(rand.NewSource(1))
	x := workload.Gaussian{Bias: 100, Sigma: 15}.Vector(n, r)

	run := func(b *testing.B, family string) {
		for it := 0; it < b.N; it++ {
			rr := rand.New(rand.NewSource(int64(it + 2)))
			var hash func(t int, i uint64) int
			switch family {
			case "fourwise":
				hs := make([]hashing.FourWise, d)
				for t := range hs {
					h, err := hashing.NewFourWise(rr, s)
					if err != nil {
						b.Fatal(err)
					}
					hs[t] = h
				}
				hash = func(t int, i uint64) int { return hs[t].Hash(i) }
			default:
				f, err := hashing.NewFamily(rr, d, s)
				if err != nil {
					b.Fatal(err)
				}
				hash = f.Hash
			}
			signs := hashing.NewSignFamily(rr, d)
			cells := make([][]float64, d)
			for t := range cells {
				cells[t] = make([]float64, s)
			}
			for i, v := range x {
				u := uint64(i)
				for t := 0; t < d; t++ {
					cells[t][hash(t, u)] += signs.SignFloat(t, u) * v
				}
			}
			var sum float64
			buf := make([]float64, d)
			for i := range x {
				u := uint64(i)
				for t := 0; t < d; t++ {
					buf[t] = signs.SignFloat(t, u) * cells[t][hash(t, u)]
				}
				est := vecmath.Median(buf)
				if diff := est - x[i]; diff > 0 {
					sum += diff
				} else {
					sum -= diff
				}
			}
			b.ReportMetric(sum/float64(n), "avgerr")
		}
	}
	b.Run("pairwise", func(b *testing.B) { run(b, "pairwise") })
	b.Run("fourwise", func(b *testing.B) { run(b, "fourwise") })
}

// BenchmarkAblationBiasEstimator compares the three ℓ2 bias estimators
// on contaminated data (Gaussian-2 with shifted outliers): the
// median-bucket estimator of Algorithm 4 must stay accurate where the
// mean blows up.
func BenchmarkAblationBiasEstimator(b *testing.B) {
	const n, k = 100_000, 64
	r := rand.New(rand.NewSource(3))
	x := workload.GaussianShifted{Bias: 100, Sigma: 15, ShiftCount: 10, ShiftBy: 100_000}.Vector(n, r)
	for _, est := range []struct {
		name string
		kind core.EstimatorKind
	}{
		{"median-bucket", core.EstimatorMedianBucket},
		{"sampled-median", core.EstimatorSampledMedian},
		{"mean", core.EstimatorMean},
	} {
		b.Run(est.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				l2 := core.NewL2SR(core.Config{
					N: n, K: k, Estimator: est.kind, SampleCount: 4 * k,
				}, rand.New(rand.NewSource(int64(it+4))))
				sketch.SketchVector(l2, x)
				b.ReportMetric(l2.Bias()-100, "bias-err")
				b.ReportMetric(vecmath.AvgAbsErr(x, sketch.Recover(l2)), "avgerr")
			}
		})
	}
}

// BenchmarkAblationCs sweeps the row-width constant c_s at a fixed
// word budget (s·d constant): wider-but-fewer rows versus
// narrower-but-more rows.
func BenchmarkAblationCs(b *testing.B) {
	const n, k, budget = 100_000, 64, 9 * 4 * 64 // words in cells at cs=4,d=9
	r := rand.New(rand.NewSource(5))
	x := workload.Gaussian{Bias: 100, Sigma: 15}.Vector(n, r)
	for _, cs := range []int{4, 8, 16} {
		d := budget / (cs * k)
		if d < 1 {
			d = 1
		}
		b.Run(map[int]string{4: "cs4", 8: "cs8", 16: "cs16"}[cs], func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				l2 := core.NewL2SR(core.Config{N: n, K: k, Cs: cs, Depth: d},
					rand.New(rand.NewSource(int64(it+6))))
				sketch.SketchVector(l2, x)
				b.ReportMetric(vecmath.AvgAbsErr(x, sketch.Recover(l2)), "avgerr")
			}
		})
	}
}

// BenchmarkAblationSampleCount sweeps the ℓ1 sampling-matrix size: the
// paper's theory needs 20·log n samples (Algorithm 1), its
// implementation uses s "for stability" (§5.1). The bias-estimate
// error shrinks with sample count; the recovery error of ℓ1-S/R is
// highly sensitive to it because a β̂ error is amplified by π ≈ n/s in
// every de-biased bucket.
func BenchmarkAblationSampleCount(b *testing.B) {
	const n, k = 100_000, 256
	r := rand.New(rand.NewSource(8))
	x := workload.Gaussian{Bias: 100, Sigma: 15}.Vector(n, r)
	for _, sc := range []struct {
		name  string
		count int
	}{
		{"20logn", 20 * 17}, // 20·log2(100k) ≈ 340
		{"s", 4 * k},        // the paper's implementation choice
		{"4s", 16 * k},
	} {
		b.Run(sc.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				l1 := core.NewL1SR(core.Config{N: n, K: k, SampleCount: sc.count},
					rand.New(rand.NewSource(int64(it+9))))
				sketch.SketchVector(l1, x)
				b.ReportMetric(l1.Bias()-100, "bias-err")
				b.ReportMetric(vecmath.AvgAbsErr(x, sketch.Recover(l1)), "avgerr")
			}
		})
	}
}

// BenchmarkAblationBiasHeap compares the Bias-Heap (Algorithm 5)
// against sort-at-query bias maintenance when every update is followed
// by a bias query — the real-time regime the heap exists for.
func BenchmarkAblationBiasHeap(b *testing.B) {
	const s, mid = 4096, 2048
	pi := make([]float64, s)
	for i := range pi {
		pi[i] = 25
	}
	b.Run("heap", func(b *testing.B) {
		h := biasheap.New(pi, mid)
		r := rand.New(rand.NewSource(7))
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			h.Update(r.Intn(s), r.NormFloat64())
			sink += h.Bias()
		}
		_ = sink
	})
	b.Run("sort", func(b *testing.B) {
		// Sort-based reference: recompute the middle average per query
		// via the estimator's sort path, by rebuilding with dirty flag.
		w := make([]float64, s)
		r := rand.New(rand.NewSource(7))
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			w[r.Intn(s)] += r.NormFloat64()
			sink += sortBias(w, pi, mid)
		}
		_ = sink
	})
}

// sortBias is the sort-per-call reference used by the Bias-Heap
// ablation.
func sortBias(w, pi []float64, mid int) float64 {
	s := len(w)
	type kv struct {
		key float64
		id  int
	}
	ids := make([]kv, s)
	for i := range ids {
		k := 0.0
		if pi[i] > 0 {
			k = w[i] / pi[i]
		}
		ids[i] = kv{k, i}
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].key != ids[b].key {
			return ids[a].key < ids[b].key
		}
		return ids[a].id < ids[b].id
	})
	top := (s - mid) / 2
	bot := (s - mid) - top
	var ws, ps float64
	for _, e := range ids[bot : s-top] {
		ws += w[e.id]
		ps += pi[e.id]
	}
	if ps == 0 {
		return 0
	}
	return ws / ps
}
