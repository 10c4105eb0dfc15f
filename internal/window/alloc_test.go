// AllocsPerRun gates are meaningless under the race detector: race-
// instrumented sync.Pool randomly drops Puts, so pooled paths
// legitimately allocate. The lexical hotpathalloc analyzer still
// covers these paths in race builds.
//go:build !race

package window

import (
	"math/rand"
	"testing"

	"repro/internal/sketch"
)

// Runtime gate of the hot-path zero-allocation contract for the
// window's read side, beside the snapshot gates in internal/concurrent:
// once the view is published and warm, a point query (a pooled batch
// of one through concurrent.QueryOne) and a batched query run with
// zero allocations per call. The window is instantiated as the facade
// instantiates it, over the sketch.Sketch interface.
func TestWindowQueryAllocFree(t *testing.T) {
	cfg := sketch.Config{N: 4096, Rows: 128, Depth: 5}
	mk := func() sketch.Sketch {
		cm, err := sketch.NewCountMin(cfg, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	merge := func(dst, src sketch.Sketch) error {
		return dst.(sketch.Linear).MergeFrom(src.(sketch.Linear))
	}
	w, err := New(Config{Panes: 3, Shards: 2}, mk, merge)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	for u := 0; u < 3000; u++ {
		if err := w.Update(u, r.Intn(cfg.N), 1); err != nil {
			t.Fatal(err)
		}
		if u == 1500 {
			if err := w.Advance(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx := make([]int, 300)
	out := make([]float64, len(idx))
	for j := range idx {
		idx[j] = r.Intn(cfg.N)
	}
	if err := w.QueryBatch(idx, out); err != nil { // warm-up: publishes the view
		t.Fatal(err)
	}
	if _, err := w.Query(idx[0]); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(50, func() { _, _ = w.Query(idx[0]) }); n != 0 {
		t.Errorf("Window.Query allocates %.1f per call in steady state", n)
	}
	if n := testing.AllocsPerRun(50, func() { _ = w.QueryBatch(idx, out) }); n != 0 {
		t.Errorf("Window.QueryBatch allocates %.1f per call in steady state", n)
	}
}
