package core_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// The basic workflow: stream a biased vector into an ℓ2-S/R sketch,
// read the bias estimate and point queries in real time.
func ExampleNewL2SR() {
	const n = 100_000
	l2 := core.NewL2SR(core.Config{N: n, K: 1024}, rand.New(rand.NewSource(7)))

	// Every key carries ~500 units (the bias); key 42 is an outlier.
	r := rand.New(rand.NewSource(8))
	for i := 0; i < n; i++ {
		l2.Update(i, 500+float64(r.Intn(21)-10))
	}
	l2.Update(42, 90_000)

	fmt.Printf("bias ≈ %.0f\n", l2.Bias())
	fmt.Printf("outlier x[42] ≈ %.0f (exact %d)\n", l2.Query(42), 90_500+10-10)
	// Output:
	// bias ≈ 500
	// outlier x[42] ≈ 90508 (exact 90500)
}

// ℓ1-S/R with the sampled-median bias estimator; merge two sketches
// built with shared seeds (the distributed model).
func ExampleSR_MergeFrom() {
	cfg := core.Config{N: 10_000, K: 256, SampleCount: 1024}
	mk := func() *core.SR { return core.NewL1SR(cfg, rand.New(rand.NewSource(3))) }

	siteA, siteB := mk(), mk()
	for i := 0; i < 10_000; i++ {
		siteA.Update(i, 60) // site A sees 60 units per key
		siteB.Update(i, 40) // site B sees 40
	}
	if err := siteA.MergeFrom(siteB); err != nil {
		panic(err)
	}
	fmt.Printf("global bias ≈ %.0f\n", siteA.Bias())
	fmt.Printf("global x[7] ≈ %.0f\n", siteA.Query(7))
	// Output:
	// global bias ≈ 100
	// global x[7] ≈ 100
}

// The sketch can bound its own error (extension beyond the paper).
func ExampleSR_TailEstimate() {
	const n = 50_000
	l2 := core.NewL2SR(core.Config{N: n, K: 512}, rand.New(rand.NewSource(1)))
	r := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		l2.Update(i, 100+r.NormFloat64()*15)
	}
	est, ok := l2.TailEstimate()
	truth := 15 * 223.6 // σ·√n
	fmt.Printf("supported: %v, estimate within 30%% of σ√n: %v\n",
		ok, est > 0.7*truth && est < 1.3*truth)
	// Output:
	// supported: true, estimate within 30% of σ√n: true
}
