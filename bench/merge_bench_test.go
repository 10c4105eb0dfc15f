// Merge benchmarks at the public-API level: repro.Merge of a populated
// sketch into a freshly built one of the default shape, the step a
// snapshot refresh repeats once per shard. ns/op is per merge;
// building the destination is not timed.
package bench_test

import (
	"testing"

	"repro"
)

func BenchmarkMerge(b *testing.B) {
	for _, algo := range []string{"l2sr", "l1sr", "countmin"} {
		b.Run(algo, func(b *testing.B) {
			src := servedSketch(b, algo)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := repro.MustNew(algo, repro.WithDim(ingestN))
				b.StartTimer()
				if err := repro.Merge(dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
