package sketch

import (
	"errors"
	"math/rand"
	"testing"
)

// The CounterBraids adapter: exactness below threshold, the typed
// constraint surface, and merge/marshal round trips — exercised
// directly so the adapter's own validation (not the facade's) is
// what's covered.
func TestCounterBraidsAdapter(t *testing.T) {
	if _, err := NewCounterBraids(0, rand.New(rand.NewSource(1))); !errors.Is(err, ErrConfig) {
		t.Fatalf("n=0: %v, want ErrConfig", err)
	}
	const n = 500
	cb := must(NewCounterBraids(n, rand.New(rand.NewSource(1))))
	if cb.Dim() != n {
		t.Fatalf("Dim = %d", cb.Dim())
	}
	if cb.Words() <= 0 || cb.Words() >= n {
		t.Fatalf("Words = %d — a braid over %d flows should cost less than exact counters", cb.Words(), n)
	}

	want := make([]float64, n)
	r := rand.New(rand.NewSource(2))
	idx := make([]int, 64)
	deltas := make([]float64, 64)
	for round := 0; round < 10; round++ {
		for j := range idx {
			idx[j] = r.Intn(n)
			deltas[j] = float64(1 + r.Intn(4))
			want[idx[j]] += deltas[j]
		}
		cb.UpdateBatch(idx, deltas)
	}
	cb.Update(7, 3)
	want[7] += 3

	out := make([]float64, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	cb.QueryBatch(all, out)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("coordinate %d: decoded %v, want %v", i, out[i], want[i])
		}
	}
	if cb.Query(7) != want[7] {
		t.Fatalf("Query(7) = %v", cb.Query(7))
	}

	// Typed panics: out-of-range index, non-integer delta, batch shape.
	expectPanic := func(name string, wantErr error, fn func()) {
		t.Helper()
		defer func() {
			rec := recover()
			if rec == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			if wantErr != nil {
				err, ok := rec.(error)
				if !ok || !errors.Is(err, wantErr) {
					t.Errorf("%s: recovered %v, want %v", name, rec, wantErr)
				}
			}
		}()
		fn()
	}
	expectPanic("negative delta", ErrInsertOnly, func() { cb.Update(0, -1) })
	expectPanic("fractional delta", ErrInsertOnly, func() { cb.Update(0, 0.5) })
	expectPanic("index out of range", nil, func() { cb.Update(n, 1) })
	expectPanic("query out of range", nil, func() { cb.Query(-1) })
	expectPanic("batch length mismatch", nil, func() { cb.UpdateBatch([]int{1}, []float64{1, 2}) })
	expectPanic("batch bad index", nil, func() { cb.UpdateBatch([]int{n}, []float64{1}) })
	expectPanic("batch bad delta", ErrInsertOnly, func() { cb.UpdateBatch([]int{1}, []float64{-1}) })
	expectPanic("query batch length mismatch", nil, func() { cb.QueryBatch([]int{1}, make([]float64, 2)) })
	expectPanic("query batch bad index", nil, func() { cb.QueryBatch([]int{-1}, make([]float64, 1)) })
	// A failed batch must not have moved any counter.
	if cb.Query(0) != want[0] || cb.Query(1) != want[1] {
		t.Fatal("rejected batch leaked a partial update")
	}

	// Merge and wire round trip.
	other := must(NewCounterBraids(n, rand.New(rand.NewSource(1))))
	other.Update(11, 4)
	if err := cb.MergeFrom(other); err != nil {
		t.Fatalf("MergeFrom: %v", err)
	}
	want[11] += 4
	if cb.Query(11) != want[11] {
		t.Fatalf("merged Query(11) = %v, want %v", cb.Query(11), want[11])
	}
	mismatch := must(NewCounterBraids(n, rand.New(rand.NewSource(99))))
	if err := cb.MergeFrom(mismatch); !errors.Is(err, ErrIncompatible) {
		t.Errorf("seed-mismatched merge: %v, want ErrIncompatible", err)
	}
	if err := cb.MergeFrom(must(NewCountMin(Config{N: n, Rows: 8, Depth: 2}, rand.New(rand.NewSource(1))))); !errors.Is(err, ErrIncompatible) {
		t.Errorf("cross-type merge: %v, want ErrIncompatible", err)
	}

	blob := cb.Marshal()
	back := must(NewCounterBraids(n, rand.New(rand.NewSource(1))))
	if err := back.Unmarshal(blob); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for i := 0; i < n; i += 11 {
		if back.Query(i) != want[i] {
			t.Fatalf("restored Query(%d) = %v, want %v", i, back.Query(i), want[i])
		}
	}
	if err := back.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("truncated braid state should be rejected")
	}
}
