package repro_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/workload"
)

// Counter Braids as a first-class registry algorithm: exact decode,
// linear merge, wire round trip, and the insert-only constraint.
func TestCounterBraidsFacade(t *testing.T) {
	const n = 600
	a, err := repro.New("counterbraids", repro.WithDim(n), repro.WithSeed(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if a.Algo() != "counterbraids" {
		t.Fatalf("Algo = %q", a.Algo())
	}
	b, err := repro.New("CB", repro.WithDim(n), repro.WithSeed(3)) // legend alias
	if err != nil {
		t.Fatal(err)
	}

	want := make([]float64, n)
	r := rand.New(rand.NewSource(8))
	for u := 0; u < 3000; u++ {
		i, d := r.Intn(n), float64(1+r.Intn(3))
		want[i] += d
		if u%2 == 0 {
			a.Update(i, d)
		} else {
			b.Update(i, d)
		}
	}

	// Merge the halves; the braid of the concatenated stream must
	// decode every coordinate exactly.
	al := a.(repro.Linear)
	if err := al.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	got := repro.Recover(a)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coordinate %d: decoded %v, want %v", i, got[i], want[i])
		}
	}

	blob, err := repro.Marshal(a)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := repro.Unmarshal(blob)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for i := 0; i < n; i += 7 {
		if back.Query(i) != want[i] {
			t.Fatalf("restored Query(%d) = %v, want %v", i, back.Query(i), want[i])
		}
	}

	// Mismatched seeds must refuse to merge.
	c, err := repro.New("counterbraids", repro.WithDim(n), repro.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Merge(c); !errors.Is(err, repro.ErrIncompatible) {
		t.Errorf("Merge with different seed: got %v, want ErrIncompatible", err)
	}

	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, repro.ErrInsertOnly) {
				t.Errorf("negative update: recovered %v, want ErrInsertOnly", r)
			}
		}()
		a.Update(0, -1)
		t.Error("negative update was accepted")
	}()
}

// Counter Braids keeps its counts in compressed counters and is
// insert-only: a negative, fractional or NaN delta must refuse loudly
// (typed panic) on the single and the batched update path, before any
// counter moves.
func TestCompressedInsertOnly(t *testing.T) {
	const n = 200
	expectInsertOnly := func(name string, delta float64, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, repro.ErrInsertOnly) {
				t.Errorf("%s delta %v: recovered %v, want ErrInsertOnly", name, delta, r)
			}
		}()
		fn()
		t.Errorf("%s delta %v: update was accepted", name, delta)
	}
	for _, delta := range []float64{-1, 2.5, math.NaN()} {
		sk, err := repro.New("counterbraids", repro.WithDim(n), repro.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		sk.Update(3, 4)
		expectInsertOnly("Update", delta, func() { sk.Update(3, delta) })
		expectInsertOnly("UpdateBatch", delta, func() {
			_ = repro.UpdateBatch(sk, []int{5, 3}, []float64{1, delta})
		})
		if got := sk.Query(3); got != 4 {
			t.Errorf("delta %v: Query(3) = %v after rejected updates, want 4", delta, got)
		}
		if got := sk.Query(5); got != 0 {
			t.Errorf("delta %v: Query(5) = %v after a rejected batch, want 0", delta, got)
		}
	}
}

// An overloaded braid must fail decode loudly (typed error), and still
// checkpoint losslessly — serialization uses the native braid state,
// not the decoded vector.
func TestCounterBraidsOverloadFailsLoudly(t *testing.T) {
	const n = 400
	sk, err := repro.New("counterbraids", repro.WithDim(n), repro.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	// Saturate every coordinate with large counts: far past the
	// decodable load for a braid sized at 1.5n shallow counters.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		sk.Update(i, float64(1+r.Intn(1<<16)))
	}
	decodeErr := func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err, _ = rec.(error)
			}
		}()
		sk.Query(0)
		return nil
	}()
	if decodeErr == nil {
		t.Skip("braid decoded a saturating workload; threshold not reached on this shape")
	}
	if !errors.Is(decodeErr, repro.ErrDecodeBudget) {
		t.Fatalf("overloaded query: got %v, want ErrDecodeBudget", decodeErr)
	}
	// The braid itself still serializes byte-for-byte.
	if _, err := repro.Marshal(sk); err != nil {
		t.Fatalf("Marshal of overloaded braid: %v", err)
	}
}

// The accuracy harness feeds the zipf workload to every algorithm,
// counterbraids included; this pins the generator to non-negative
// integer values, the only deltas a braid accepts.
func TestWorkloadIsInsertOnly(t *testing.T) {
	x := (workload.ZipfLike{}).Vector(256, rand.New(rand.NewSource(1)))
	for i, v := range x {
		if v < 0 || v != float64(int64(v)) {
			t.Fatalf("workload coordinate %d = %v is not a non-negative integer", i, v)
		}
	}
}
