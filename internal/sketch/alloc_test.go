// AllocsPerRun gates are meaningless under the race detector: race-
// instrumented sync.Pool randomly drops Puts, so pooled paths
// legitimately allocate. The lexical hotpathalloc analyzer still
// covers these paths in race builds.
//go:build !race

package sketch

import (
	"math/rand"
	"testing"
)

// The runtime half of the //sketch:hotpath contract (the lexical half
// is enforced by the hotpathalloc analyzer in cmd/sketchlint): after a
// warm-up pass that grows every reusable buffer and primes the shared
// scratch pool, the batched ingestion and serving paths of every
// algorithm run with zero allocations per operation.

const (
	allocDim   = 1 << 12
	allocBatch = 600 // spans multiple queryChunk tiles
)

func allocSketches(r *rand.Rand) map[string]Sketch {
	cfg := Config{N: allocDim, Rows: 128, Depth: 5}
	return map[string]Sketch{
		"countmin":    must(NewCountMin(cfg, r)),
		"countmedian": must(NewCountMedian(cfg, r)),
		"countsketch": must(NewCountSketch(cfg, r)),
		"cmcu":        must(NewCMCU(cfg, r)),
		"cmlcu":       must(NewCMLCU(cfg, DefaultCMLBase, r)),
		"dengrafiei":  must(NewDengRafiei(cfg, r)),
	}
}

func allocBatchData(r *rand.Rand) (idx []int, deltas, out []float64) {
	idx = make([]int, allocBatch)
	deltas = make([]float64, allocBatch)
	out = make([]float64, allocBatch)
	for j := range idx {
		idx[j] = r.Intn(allocDim)
		deltas[j] = float64(1 + r.Intn(5))
	}
	return idx, deltas, out
}

func TestUpdateBatchAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	idx, deltas, _ := allocBatchData(r)
	for name, s := range allocSketches(r) {
		b := s.(BatchUpdater)
		b.UpdateBatch(idx, deltas) // warm-up: grows reusable buffers
		if n := testing.AllocsPerRun(50, func() { b.UpdateBatch(idx, deltas) }); n != 0 {
			t.Errorf("%s: UpdateBatch allocates %.1f per call in steady state", name, n)
		}
	}
}

func TestQueryBatchAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	idx, deltas, out := allocBatchData(r)
	for name, s := range allocSketches(r) {
		s.(BatchUpdater).UpdateBatch(idx, deltas)
		b := s.(BatchQuerier)
		b.QueryBatch(idx, out) // warm-up: primes the scratch pool
		if n := testing.AllocsPerRun(50, func() { b.QueryBatch(idx, out) }); n != 0 {
			t.Errorf("%s: QueryBatch allocates %.1f per call in steady state", name, n)
		}
	}
}

// The package-level dispatch helpers must add nothing on top of the
// native paths: a concrete sketch held in the interface is a pointer,
// so the dispatch itself stays allocation-free too.
func TestDispatchHelpersAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	idx, deltas, out := allocBatchData(r)
	s := Sketch(must(NewCountMedian(Config{N: allocDim, Rows: 128, Depth: 5}, r)))
	UpdateBatch(s, idx, deltas)
	QueryBatch(s, idx, out)
	if n := testing.AllocsPerRun(50, func() { UpdateBatch(s, idx, deltas) }); n != 0 {
		t.Errorf("sketch.UpdateBatch allocates %.1f per call in steady state", n)
	}
	if n := testing.AllocsPerRun(50, func() { QueryBatch(s, idx, out) }); n != 0 {
		t.Errorf("sketch.QueryBatch allocates %.1f per call in steady state", n)
	}
}
