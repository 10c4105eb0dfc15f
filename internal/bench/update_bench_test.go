package bench

import (
	"math/rand"
	"testing"

	"repro/internal/sketch"
)

// Ingestion benchmarks at the paper's §5.1 shape (s=4096, d=9): the
// same b.N updates flow through the element-wise Update loop and
// through UpdateBatch in batches of updateBatchLen, so ns/op is
// directly comparable between the two — the batched number must win by
// the row-major traversal (cache-hot rows, one hash-coefficient load
// per row per batch).
const (
	updateBenchN   = 1_000_000
	updateBenchS   = 4096
	updateBenchD   = 9
	updateBatchLen = 1024
)

// updateStream pre-materializes a reusable random coordinate stream so
// neither benchmark pays RNG costs inside the timed loop.
func updateStream() (idx []int, ones []float64) {
	r := rand.New(rand.NewSource(77))
	idx = make([]int, 1<<16)
	ones = make([]float64, 1<<16)
	for j := range idx {
		idx[j] = r.Intn(updateBenchN)
		ones[j] = 1
	}
	return idx, ones
}

func BenchmarkUpdate(b *testing.B) {
	idx, ones := updateStream()
	for _, algo := range All {
		b.Run(algo, func(b *testing.B) {
			sk := Make(algo, updateBenchN, updateBenchS, updateBenchD, 1)
			mask := len(idx) - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Update(idx[i&mask], ones[0])
			}
		})
	}
}

func BenchmarkUpdateBatch(b *testing.B) {
	idx, ones := updateStream()
	for _, algo := range All {
		b.Run(algo, func(b *testing.B) {
			sk := Make(algo, updateBenchN, updateBenchS, updateBenchD, 1)
			bu, ok := sk.(sketch.BatchUpdater)
			if !ok {
				b.Fatalf("%s (%T) has no batched path", algo, sk)
			}
			span := len(idx) - updateBatchLen
			b.ResetTimer()
			for done := 0; done < b.N; done += updateBatchLen {
				m := updateBatchLen
				if rem := b.N - done; rem < m {
					m = rem
				}
				off := done % span
				bu.UpdateBatch(idx[off:off+m], ones[off:off+m])
			}
		})
	}
}
