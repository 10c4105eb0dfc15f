// TopK and Scan benchmarks at the public-API level: facade repro.TopK,
// k=16, and repro.Scan, on n=2^20 keys fed 2^20 biased updates — a
// uniform background plus 32 planted keys that take a tenth of the
// elements, with integer deltas 1–5 — at the serve and embed shapes of
// ℓ2-S/R and the monitor shape of ℓ1-S/R. ns/op is per call.
package bench_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro"
)

const (
	topkN       = 1 << 20
	topkUpdates = 1 << 20
	topkPlanted = 32
	topkK       = 16
)

// topkSketch builds a facade sketch of the given shape and feeds it
// the biased stream.
func topkSketch(b *testing.B, algo string, words, depth int) repro.Sketch {
	b.Helper()
	sk := repro.MustNew(algo, repro.WithDim(topkN), repro.WithWords(words), repro.WithDepth(depth))
	r := rand.New(rand.NewSource(99))
	planted := r.Perm(topkN)[:topkPlanted]
	idx := make([]int, ingestBatchLen)
	deltas := make([]float64, ingestBatchLen)
	for done := 0; done < topkUpdates; done += ingestBatchLen {
		for j := range idx {
			if r.Intn(10) == 0 {
				idx[j] = planted[r.Intn(topkPlanted)]
			} else {
				idx[j] = r.Intn(topkN)
			}
			deltas[j] = float64(1 + r.Intn(5))
		}
		if err := repro.UpdateBatch(sk, idx, deltas); err != nil {
			b.Fatal(err)
		}
	}
	return sk
}

// topkShapes are the serve, embed and monitor sketch shapes.
var topkShapes = []struct {
	algo         string
	words, depth int
}{
	{"l2sr", 4096, 9},
	{"l2sr", 1 << 16, 9},
	{"l1sr", 1024, 5},
}

func BenchmarkTopK(b *testing.B) {
	for _, sh := range topkShapes {
		b.Run(fmt.Sprintf("%s/s=%d/d=%d", sh.algo, sh.words, sh.depth), func(b *testing.B) {
			sk := topkSketch(b, sh.algo, sh.words, sh.depth)
			if _, err := repro.TopK(sk, topkK); err != nil { // builds π/ψ
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := repro.TopK(sk, topkK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScan sweeps Scan's threshold from the noise floor up to the
// k-th deviation of TopK(k=16): at 1/128, 1/32, 1/8, 1/4, 1/2 and 1
// times it. At 1/128 ℓ2-S/R's heavy buckets are too many to list, so
// Scan takes the range scan, and at the ℓ1-S/R shape every key passes
// the two lowest thresholds.
func BenchmarkScan(b *testing.B) {
	for _, sh := range topkShapes {
		sk := topkSketch(b, sh.algo, sh.words, sh.depth)
		top, err := repro.TopK(sk, topkK)
		if err != nil {
			b.Fatal(err)
		}
		kth := top[len(top)-1].Deviation
		for _, f := range []float64{1.0 / 128, 1.0 / 32, 0.125, 0.25, 0.5, 1} {
			b.Run(fmt.Sprintf("%s/s=%d/d=%d/x%g", sh.algo, sh.words, sh.depth, f), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := repro.Scan(sk, f*kth); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
