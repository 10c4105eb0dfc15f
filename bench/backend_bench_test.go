// Counter-plane backend benchmarks at the public-API level: the cost
// of each storage choice on the three paths that matter — ingestion
// (dense vs compressed), serving (all three), and restore. The
// time-to-first-query benchmark is the mmap backend's reason to
// exist: opening a checkpoint by mmap is O(1) in the sketch size,
// while a full decode pays for every cell before the first answer.
package bench_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// backendShape matches the baseline shape (s=4096, d=9) so backend
// entries in the BENCH_<n>.json baseline are comparable with the
// per-algorithm paths.
func backendSketch(b *testing.B, be repro.Backend, feed int) repro.Sketch {
	b.Helper()
	sk, err := repro.New("countmin",
		repro.WithDim(1_000_000), repro.WithWords(4096), repro.WithDepth(9),
		repro.WithSeed(7), repro.WithBackend(be))
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < feed; u++ {
		sk.Update((u*u+13)%1_000_000, float64(1+u%5))
	}
	return sk
}

// BenchmarkBackendUpdate measures one element-wise update per op on
// the writable backends. The compressed plane pays the braid's hash
// cascade per add; the dense plane is the zero-alloc baseline.
func BenchmarkBackendUpdate(b *testing.B) {
	for _, be := range []repro.Backend{repro.BackendDense, repro.BackendCompressed} {
		b.Run(be.String(), func(b *testing.B) {
			sk := backendSketch(b, be, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Update((i*i+13)%1_000_000, float64(1+i%5))
			}
		})
	}
}

// BenchmarkBackendQuery measures one point query per op against a
// quiescent sketch on every backend. The compressed plane's decode is
// amortized across the run (it caches until the next write), which is
// exactly its serving model: decode once, answer many.
func BenchmarkBackendQuery(b *testing.B) {
	const feed = 100_000
	serve := func(b *testing.B, sk repro.Sketch) {
		sk.Query(0) // settle the decode-at-first-query cost outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sk.Query((i * 31) % 1_000_000)
		}
	}
	for _, be := range []repro.Backend{repro.BackendDense, repro.BackendCompressed} {
		b.Run(be.String(), func(b *testing.B) {
			serve(b, backendSketch(b, be, feed))
		})
	}
	b.Run(repro.BackendMmap.String(), func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "sk.bas2")
		if err := repro.WriteSketchFile(path, backendSketch(b, repro.BackendDense, feed)); err != nil {
			b.Fatal(err)
		}
		sk, closeMap, err := repro.OpenMmap(path)
		if err != nil {
			b.Fatal(err)
		}
		defer closeMap()
		serve(b, sk)
	})
}

// BenchmarkBackendRestore measures a full checkpoint restore onto each
// stream-restorable backend (mmap restores from files, not streams —
// see BenchmarkBackendTimeToFirstQuery). The compressed restore
// re-inserts every non-zero cell into the braid, trading restore time
// for resident size.
func BenchmarkBackendRestore(b *testing.B) {
	blob, err := repro.Marshal(backendSketch(b, repro.BackendDense, 100_000))
	if err != nil {
		b.Fatal(err)
	}
	for _, be := range []repro.Backend{repro.BackendDense, repro.BackendCompressed} {
		b.Run(be.String(), func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := repro.DecodeWith(blob, be); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackendTimeToFirstQuery measures restart latency: from a
// checkpoint file on disk to the first answered query. The decode path
// reads and materializes every cell; the mmap path maps the file and
// faults in only the buckets the query touches.
func BenchmarkBackendTimeToFirstQuery(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sk.bas2")
	if err := repro.WriteSketchFile(path, backendSketch(b, repro.BackendDense, 100_000)); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("decode", func(b *testing.B) {
		b.SetBytes(fi.Size())
		for i := 0; i < b.N; i++ {
			data, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			sk, err := repro.Unmarshal(data)
			if err != nil {
				b.Fatal(err)
			}
			sk.Query(i % 1_000_000)
		}
	})
	b.Run("mmap", func(b *testing.B) {
		b.SetBytes(fi.Size())
		for i := 0; i < b.N; i++ {
			sk, closeMap, err := repro.OpenMmap(path)
			if err != nil {
				b.Fatal(err)
			}
			sk.Query(i % 1_000_000)
			if err := closeMap(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
