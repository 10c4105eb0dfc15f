package window

// Degraded-path tests: a failing merge must surface as an error from
// every entry point that merges — never corrupt the published view —
// and a malformed batch must panic before it reaches the replica.

import (
	"errors"
	"strings"
	"testing"
)

// plainSketch is a minimal Mergeable over a dense vector.
type plainSketch struct{ x []float64 }

func newPlain() *plainSketch { return &plainSketch{x: make([]float64, 16)} }

func (p *plainSketch) Update(i int, d float64) { p.x[i] += d }
func (p *plainSketch) Query(i int) float64     { return p.x[i] }
func (p *plainSketch) Dim() int                { return len(p.x) }
func (p *plainSketch) Words() int              { return len(p.x) }

func (p *plainSketch) UpdateBatch(idx []int, deltas []float64) {
	for j, i := range idx {
		p.Update(i, deltas[j])
	}
}

func (p *plainSketch) QueryBatch(idx []int, out []float64) {
	for j, i := range idx {
		out[j] = p.Query(i)
	}
}

func mergePlain(dst, src *plainSketch) error {
	for i, v := range src.x {
		dst.x[i] += v
	}
	return nil
}

func TestViewQueryBatchPanicsOnLengthMismatch(t *testing.T) {
	w, err := New(Config{Panes: 2, Shards: 1}, newPlain, mergePlain)
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.QueryBatch([]int{1, 2}, make([]float64, 1))
}

// failAfter makes a merge function that fails once its budget runs
// out, exercising the error paths of Advance and refresh.
func failAfter(budget int) func(dst, src *plainSketch) error {
	calls := 0
	return func(dst, src *plainSketch) error {
		if calls++; calls > budget {
			return errors.New("merge exploded")
		}
		return mergePlain(dst, src)
	}
}

func TestAdvanceSurfacesMergeError(t *testing.T) {
	w, err := New(Config{Panes: 3, Shards: 1}, newPlain, failAfter(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Update(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	// First advance: freeze merge + closed-sum merge (budget spent).
	// The second advance's freeze merge then fails.
	if err := w.Advance(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Update(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	err = w.Advance(1)
	if err == nil || !strings.Contains(err.Error(), "merge exploded") {
		t.Fatalf("Advance error = %v, want merge failure", err)
	}
}

// A failed Advance must be a no-op: the pane stays open, nothing is
// double-counted, and once the merge heals the window rotates and
// queries correctly.
func TestFailedAdvanceLeavesWindowIntact(t *testing.T) {
	failing := false
	merge := func(dst, src *plainSketch) error {
		if failing {
			return errors.New("merge exploded")
		}
		return mergePlain(dst, src)
	}
	w, err := New(Config{Panes: 3, Shards: 1}, newPlain, merge)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Update(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Update(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	failing = true
	if err := w.Advance(1); err == nil || !strings.Contains(err.Error(), "merge exploded") {
		t.Fatalf("Advance error = %v, want merge failure", err)
	}
	failing = false
	// State intact: the pane never rotated, totals unchanged.
	if got, err := w.Query(1); err != nil || got != 15 {
		t.Fatalf("after failed Advance, Query = %v, %v; want 15 (no loss, no double count)", got, err)
	}
	if w.Live() != 2 {
		t.Fatalf("Live = %d after failed Advance, want 2", w.Live())
	}
	// Healed: rotation proceeds and expiry math is unharmed.
	if err := w.Advance(1); err != nil {
		t.Fatal(err)
	}
	if got, err := w.Query(1); err != nil || got != 15 {
		t.Fatalf("after healed Advance, Query = %v, %v; want 15", got, err)
	}
	if err := w.Advance(1); err != nil { // first pane (the 10) expires
		t.Fatal(err)
	}
	if got, err := w.Query(1); err != nil || got != 5 {
		t.Fatalf("after expiry, Query = %v, %v; want 5", got, err)
	}
	if err := w.Advance(1); err != nil { // second pane (the 5) expires
		t.Fatal(err)
	}
	if got, err := w.Query(1); err != nil || got != 0 {
		t.Fatalf("after full expiry, Query = %v, %v; want 0", got, err)
	}
}

func TestRefreshSurfacesMergeError(t *testing.T) {
	w, err := New(Config{Panes: 2, Shards: 1}, newPlain, failAfter(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Update(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(1); err == nil || !strings.Contains(err.Error(), "merge exploded") {
		t.Fatalf("Query error = %v, want merge failure", err)
	}
	if err := w.QueryBatch([]int{1}, make([]float64, 1)); err == nil {
		t.Fatal("QueryBatch should surface the merge failure")
	}
	if _, err := w.View(); err == nil {
		t.Fatal("View should surface the merge failure")
	}
}
