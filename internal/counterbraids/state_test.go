package counterbraids

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// feedBraid drives a deterministic insert-only stream and returns the
// reference vector.
func feedBraid(b *Braid, n int, seed int64) []float64 {
	want := make([]float64, n)
	r := rand.New(rand.NewSource(seed))
	for u := 0; u < 4*n; u++ {
		i, d := r.Intn(n), float64(1+r.Intn(5))
		b.Update(i, d)
		want[i] += d
	}
	return want
}

func TestSameShape(t *testing.T) {
	mk := func(n int, seed int64) *Braid {
		return New(Config{N: n}, rand.New(rand.NewSource(seed)))
	}
	a := mk(200, 1)
	if !a.SameShape(mk(200, 1)) {
		t.Error("identical construction should share shape")
	}
	if a.SameShape(mk(201, 1)) {
		t.Error("different n should not share shape")
	}
	if a.SameShape(mk(200, 2)) {
		t.Error("different hash seeds should not share shape")
	}
}

// Merging two braids must be bit-identical to one braid that ingested
// both streams — including layer-1 overflow carries re-applied at
// merge time.
func TestMergeFromMatchesConcatenatedStream(t *testing.T) {
	const n = 150
	mk := func() *Braid { return New(Config{N: n}, rand.New(rand.NewSource(3))) }
	a, b, both := mk(), mk(), mk()
	wa := feedBraid(a, n, 10)
	wb := feedBraid(b, n, 11)
	feedBraid(both, n, 10)
	feedBraid(both, n, 11)

	if err := a.MergeFrom(b); err != nil {
		t.Fatalf("MergeFrom: %v", err)
	}
	// Bit-identical counter state, not just equal decodes.
	am, bm := a.Marshal(), both.Marshal()
	if len(am) != len(bm) {
		t.Fatalf("state sizes differ: %d vs %d", len(am), len(bm))
	}
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("merged state differs from concatenated-stream state at byte %d", i)
		}
	}
	x, err := a.Decode(32)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i := range x {
		if x[i] != wa[i]+wb[i] {
			t.Fatalf("coordinate %d: decoded %v, want %v", i, x[i], wa[i]+wb[i])
		}
	}

	if err := a.MergeFrom(New(Config{N: n}, rand.New(rand.NewSource(99)))); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("seed mismatch: %v, want ErrShapeMismatch", err)
	}
}

// Layer-1 overflow carries: large per-flow totals overflow the shallow
// counters, and the merge must re-apply the carry rule rather than add
// residues blindly.
func TestMergeFromWithOverflowingCounters(t *testing.T) {
	const n = 40
	mk := func() *Braid { return New(Config{N: n}, rand.New(rand.NewSource(5))) }
	a, b, both := mk(), mk(), mk()
	big := float64(uint64(1) << 13) // past the 12-bit layer-1 ceiling
	for i := 0; i < n; i++ {
		a.Update(i, big)
		b.Update(i, big)
		both.Update(i, big)
		both.Update(i, big)
	}
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	am, bm := a.Marshal(), both.Marshal()
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("overflow merge state differs at byte %d", i)
		}
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	const n = 120
	a := New(Config{N: n}, rand.New(rand.NewSource(7)))
	want := feedBraid(a, n, 8)

	blob := a.Marshal()
	back := New(Config{N: n}, rand.New(rand.NewSource(7)))
	if err := back.Unmarshal(blob); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	x, err := back.Decode(32)
	if err != nil {
		t.Fatalf("Decode after restore: %v", err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("coordinate %d: restored %v, want %v", i, x[i], want[i])
		}
	}
}

func TestUnmarshalRejections(t *testing.T) {
	const n = 60
	b := New(Config{N: n}, rand.New(rand.NewSource(9)))
	valid := b.Marshal()

	short := valid[:8]
	wrongLayer := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(wrongLayer, binary.LittleEndian.Uint64(wrongLayer)+1)
	truncated := valid[:len(valid)-8]
	ceiling := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(ceiling[16:], 1<<20) // over the 12-bit layer-1 cap

	for name, buf := range map[string][]byte{
		"short header":   short,
		"layer mismatch": wrongLayer,
		"truncated body": truncated,
		"over ceiling":   ceiling,
	} {
		if err := b.Unmarshal(buf); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: err = %v, want ErrBadState", name, err)
		}
	}
	if err := b.Unmarshal(valid); err != nil {
		t.Errorf("control: valid state rejected: %v", err)
	}
}
