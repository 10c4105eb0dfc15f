package ost

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertKthSorted(t *testing.T) {
	tr := New(1)
	vals := []float64{5, 3, 8, 1, 9, 2, 7}
	for _, v := range vals {
		tr.Insert(v)
	}
	sort.Float64s(vals)
	if tr.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(vals))
	}
	for i, want := range vals {
		if got := tr.Kth(i); got != want {
			t.Errorf("Kth(%d) = %f, want %f", i, got, want)
		}
	}
}

func TestDuplicates(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Insert(7)
	}
	tr.Insert(3)
	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tr.Len())
	}
	if tr.Kth(0) != 3 || tr.Kth(1) != 7 || tr.Kth(5) != 7 {
		t.Error("duplicate ordering wrong")
	}
	if !tr.Delete(7) {
		t.Error("Delete(7) should succeed")
	}
	if tr.Len() != 5 {
		t.Errorf("Len after delete = %d, want 5", tr.Len())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New(3)
	tr.Insert(1)
	if tr.Delete(2) {
		t.Error("Delete of absent key should report false")
	}
	if tr.Len() != 1 {
		t.Error("failed delete must not change size")
	}
}

func TestMedianOddEven(t *testing.T) {
	tr := New(4)
	for _, v := range []float64{10, 20, 30} {
		tr.Insert(v)
	}
	if got := tr.Median(); got != 20 {
		t.Errorf("odd median = %f, want 20", got)
	}
	tr.Insert(40)
	if got := tr.Median(); got != 25 {
		t.Errorf("even median = %f, want 25", got)
	}
}

func TestMedianEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(5).Median()
}

func TestKthOutOfRangePanics(t *testing.T) {
	tr := New(6)
	tr.Insert(1)
	for _, k := range []int{-1, 1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Kth(%d) should panic", k)
				}
			}()
			tr.Kth(k)
		}()
	}
}

func TestRank(t *testing.T) {
	tr := New(7)
	for _, v := range []float64{1, 3, 3, 5} {
		tr.Insert(v)
	}
	cases := []struct {
		key  float64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 3}, {5, 3}, {6, 4}}
	for _, c := range cases {
		if got := tr.Rank(c.key); got != c.want {
			t.Errorf("Rank(%f) = %d, want %d", c.key, got, c.want)
		}
	}
}

// NaN keys sort above +Inf, equal to each other: Delete(NaN) removes a
// NaN, not whatever node the search reaches first, and Len, Kth and
// Rank keep matching the multiset.
func TestNaNKeys(t *testing.T) {
	tr := New(13)
	nan := math.NaN()
	for _, v := range []float64{1, 2, 3, 4, 5, nan} {
		tr.Insert(v)
	}
	if !tr.Delete(nan) {
		t.Fatal("Delete(NaN) found no NaN")
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d after Delete(NaN), want 5", tr.Len())
	}
	for k := 0; k < 5; k++ {
		if got := tr.Kth(k); got != float64(k+1) {
			t.Errorf("Kth(%d) = %v, want %d", k, got, k+1)
		}
	}
	if tr.Delete(nan) {
		t.Error("Delete(NaN) reported a NaN in a tree without one")
	}

	for _, v := range []float64{nan, math.Inf(1), nan, math.Inf(-1)} {
		tr.Insert(v)
	}
	want := []float64{math.Inf(-1), 1, 2, 3, 4, 5, math.Inf(1), nan, nan}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for k, w := range want {
		if got := tr.Kth(k); got != w && !(math.IsNaN(got) && math.IsNaN(w)) {
			t.Errorf("Kth(%d) = %v, want %v", k, got, w)
		}
	}
	if got := tr.Rank(nan); got != 7 {
		t.Errorf("Rank(NaN) = %d, want 7", got)
	}
	if got := tr.Rank(math.Inf(1)); got != 6 {
		t.Errorf("Rank(+Inf) = %d, want 6", got)
	}
	for i := 0; i < 2; i++ {
		if !tr.Delete(nan) {
			t.Fatalf("Delete(NaN) #%d found no NaN", i+1)
		}
	}
	if tr.Len() != 7 || !math.IsInf(tr.Kth(6), 1) {
		t.Errorf("after deleting both NaNs: Len = %d, top = %v", tr.Len(), tr.Kth(tr.Len()-1))
	}
}

// Property: after a random sequence of inserts and deletes, the tree
// agrees with a sorted-slice reference on length, every rank, and the
// median.
func TestAgainstReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(seed ^ 0x5a5a)
		var ref []float64
		for step := 0; step < 300; step++ {
			if len(ref) > 0 && r.Intn(3) == 0 {
				// Delete a random existing value.
				v := ref[r.Intn(len(ref))]
				if !tr.Delete(v) {
					return false
				}
				for i, rv := range ref {
					if rv == v {
						ref = append(ref[:i], ref[i+1:]...)
						break
					}
				}
			} else {
				v := float64(r.Intn(40)) // small domain forces duplicates
				tr.Insert(v)
				ref = append(ref, v)
			}
			if tr.Len() != len(ref) {
				return false
			}
			if len(ref) > 0 {
				sorted := append([]float64(nil), ref...)
				sort.Float64s(sorted)
				for _, k := range []int{0, len(sorted) / 2, len(sorted) - 1} {
					if tr.Kth(k) != sorted[k] {
						return false
					}
				}
				var wantMed float64
				if len(sorted)%2 == 1 {
					wantMed = sorted[len(sorted)/2]
				} else {
					wantMed = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
				}
				if tr.Median() != wantMed {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLargeSequential(t *testing.T) {
	tr := New(8)
	const n = 20000
	for i := 0; i < n; i++ {
		tr.Insert(float64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Kth(n/2) != float64(n/2) {
		t.Error("Kth wrong on sequential input")
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(float64(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	if tr.Kth(0) != 1 || tr.Kth(1) != 3 {
		t.Error("odd keys should remain")
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	tr := New(9)
	r := rand.New(rand.NewSource(10))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = r.Float64()
		tr.Insert(vals[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vals[i&1023]
		tr.Delete(v)
		nv := v + 1
		tr.Insert(nv)
		vals[i&1023] = nv
	}
}

func BenchmarkMedian(b *testing.B) {
	tr := New(11)
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 4096; i++ {
		tr.Insert(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Median()
	}
}
