package repro_test

// Accuracy-bound regression harness: for every registry algorithm, a
// seeded zipf workload is sketched and the observed point-query errors
// are checked against the algorithm's theoretical (ε, δ) guarantee —
// at most a δ fraction of coordinates may deviate beyond the ε-scaled
// norm. Earlier layers lock bit-identity (batch ≡ element-wise,
// snapshot ≡ sequential); this one locks the thing the paper is
// actually about: the estimates stay inside the error bounds. A
// refactor that keeps paths bit-identical but silently degrades an
// estimator (wrong hash family, dropped repetition, broken bias
// subtraction) fails here and nowhere else.

import (
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/workload"
)

// The harness shape: n coordinates, s words per row, depth d — so the
// baselines run d+1 rows of s buckets and the bias-aware sketches run
// d rows of s/4 buckets (the registry's equal-words protocol).
const (
	accN     = 4096
	accWords = 256
	accDepth = 5
)

// bound is one algorithm's theoretical guarantee instantiated for a
// concrete dataset: at most a delta fraction of coordinates may have
// |x̂_i − x_i| > eps-scaled-threshold.
type bound struct {
	threshold float64 // the ε side: the per-coordinate error cap
	delta     float64 // the δ side: allowed fraction of violations
	oneSided  bool    // estimator never underestimates (insert-only)
}

// norms of the residual vector x − β (β = 0 for the unbiased
// algorithms; the bias-aware bounds are relative to the sketch's own
// β̂ — that is their entire point).
type norms struct {
	l1, l2 float64
}

func residualNorms(x []float64, beta float64) norms {
	var n norms
	for _, v := range x {
		r := v - beta
		n.l1 += math.Abs(r)
		n.l2 += r * r
	}
	n.l2 = math.Sqrt(n.l2)
	return n
}

// boundFor instantiates the paper-form guarantee for one algorithm.
//
//   - Count-Min family (countmin, cmcu, cmlcu, dengrafiei): b = words
//     buckets per row, r = depth+1 rows; the row minimum (or
//     noise-corrected estimate) satisfies |err| ≤ e·‖x‖₁/b with
//     probability 1 − e^{−r} (Markov per row, independence across
//     rows). Count-Min and CM-CU additionally never underestimate on
//     an insert-only stream — that half is structural, not
//     probabilistic, and is asserted exactly.
//   - Count-Median: median of r rows, each within 8·‖x‖₁/b with
//     per-row failure p = 1/8 (Markov at 8× the expected row noise);
//     a Chernoff bound on the median gives δ = (4p(1−p))^{r/2}.
//   - Count-Sketch: median of r rows with per-row variance ‖x‖₂²/b,
//     so |err| ≤ 3·‖x‖₂/√b at p = 1/9 (Chebyshev at 3σ) and
//     δ = (4p(1−p))^{r/2}.
//   - l1sr/l1mean: the paper's ℓ1-S/R guarantee with k = words/4
//     buckets and d rows, relative to the residual the sketch itself
//     de-biases: |err| ≤ e·‖x − β̂‖₁/k, δ = e^{−d}.
//   - l2sr/l2mean: the ℓ2-S/R analogue: |err| ≤ 3·‖x − β̂‖₂/√k,
//     δ = (4p(1−p))^{d/2} at p = 1/9.
//   - exact: zero error, always.
func boundFor(t *testing.T, algo string, x []float64, sk repro.Sketch) bound {
	t.Helper()
	chernoff := func(p float64, rows int) float64 {
		return math.Pow(4*p*(1-p), float64(rows)/2)
	}
	base := residualNorms(x, 0)
	rows := accDepth + 1
	buckets := float64(accWords)
	k := float64(accWords / 4)
	switch algo {
	case "countmin", "cmcu":
		return bound{threshold: math.E * base.l1 / buckets, delta: math.Exp(-float64(rows)), oneSided: true}
	case "cmlcu", "dengrafiei":
		// Same ε as Count-Min but two-sided: the log counters (cmlcu)
		// and the expected-noise subtraction (dengrafiei) can undershoot.
		return bound{threshold: math.E * base.l1 / buckets, delta: math.Exp(-float64(rows))}
	case "countmedian":
		return bound{threshold: 8 * base.l1 / buckets, delta: chernoff(1.0/8, rows)}
	case "countsketch":
		return bound{threshold: 3 * base.l2 / math.Sqrt(buckets), delta: chernoff(1.0/9, rows)}
	case "l1sr", "l1mean":
		beta, err := repro.Bias(sk)
		if err != nil {
			t.Fatalf("%s: Bias: %v", algo, err)
		}
		res := residualNorms(x, beta)
		return bound{threshold: math.E * res.l1 / k, delta: math.Exp(-float64(accDepth))}
	case "l2sr", "l2mean":
		beta, err := repro.Bias(sk)
		if err != nil {
			t.Fatalf("%s: Bias: %v", algo, err)
		}
		res := residualNorms(x, beta)
		return bound{threshold: 3 * res.l2 / math.Sqrt(k), delta: chernoff(1.0/9, accDepth)}
	case "exact":
		return bound{threshold: 1e-12, delta: 0}
	case "counterbraids":
		// Counter Braids is not an approximate sketch: below its load
		// threshold the message-passing decode recovers every count
		// exactly (Lu et al., Thm. 1); past it, queries fail loudly
		// rather than degrade. The harness shape stays below threshold.
		return bound{threshold: 1e-9, delta: 0}
	default:
		t.Fatalf("no accuracy bound on file for algorithm %q — add one here", algo)
		return bound{}
	}
}

// TestAccuracyWithinTheoreticalBounds drives a seeded zipf workload
// through every registry algorithm and asserts the recovered estimates
// sit inside the (ε, δ) guarantee: at most a δ fraction of the n
// coordinates may deviate beyond the ε threshold. Two independent
// (workload seed, sketch seed) pairs guard against a single lucky
// hash draw.
func TestAccuracyWithinTheoreticalBounds(t *testing.T) {
	for _, seeds := range []struct{ data, sketch int64 }{{7, 3}, {101, 55}} {
		x := (workload.ZipfLike{}).Vector(accN, rand.New(rand.NewSource(seeds.data)))
		for _, algo := range repro.Algorithms() {
			sk, err := repro.New(algo,
				repro.WithDim(accN), repro.WithWords(accWords),
				repro.WithDepth(accDepth), repro.WithSeed(seeds.sketch))
			if err != nil {
				t.Fatalf("%s: New: %v", algo, err)
			}
			if err := repro.SketchVector(sk, x); err != nil {
				t.Fatalf("%s: SketchVector: %v", algo, err)
			}
			b := boundFor(t, algo, x, sk)
			xhat := repro.Recover(sk)

			violations := 0
			worst := 0.0
			for i := range x {
				e := xhat[i] - x[i]
				if b.oneSided && e < -1e-9 {
					t.Errorf("%s (seeds %d/%d): underestimate at %d: x=%v x̂=%v — structurally impossible on an insert-only stream",
						algo, seeds.data, seeds.sketch, i, x[i], xhat[i])
				}
				if a := math.Abs(e); a > b.threshold {
					violations++
					if a > worst {
						worst = a
					}
				}
			}
			// The δ side: the guarantee holds per coordinate with
			// probability 1−δ, so across n coordinates up to δ·n
			// violations are within contract (plus 1% finite-sample
			// slack so the harness tests the guarantee, not the exact
			// tail constant).
			allowed := (b.delta + 0.01) * float64(len(x))
			if float64(violations) > allowed {
				t.Errorf("%s (seeds %d/%d): %d of %d coordinates exceed the ε bound %.2f (worst |err| %.2f); theory allows %.0f (δ=%.4f)",
					algo, seeds.data, seeds.sketch, violations, len(x), b.threshold, worst, allowed, b.delta)
			}
		}
	}
}
