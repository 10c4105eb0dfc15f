package biasheap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refMiddle computes the middle-section sums by sorting, as the ground
// truth for the heap's incremental maintenance. It uses the same
// (key, id) total order as the heap.
func refMiddle(w, pi []float64, topSize, botSize int) (wMid, piMid float64) {
	s := len(w)
	ids := make([]int, s)
	for i := range ids {
		ids[i] = i
	}
	key := func(i int) float64 {
		if pi[i] == 0 {
			return 0
		}
		return w[i] / pi[i]
	}
	sort.Slice(ids, func(a, b int) bool {
		ka, kb := key(ids[a]), key(ids[b])
		if ka != kb {
			return ka < kb
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids[botSize : s-topSize] {
		wMid += w[id]
		piMid += pi[id]
	}
	return
}

func uniformPi(s int, v float64) []float64 {
	pi := make([]float64, s)
	for i := range pi {
		pi[i] = v
	}
	return pi
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		s, mid int
	}{{0, 1}, {4, 0}, {4, 5}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(s=%d, mid=%d) should panic", c.s, c.mid)
				}
			}()
			New(uniformPi(c.s, 1), c.mid)
		}()
	}
}

func TestUpdateOutOfRangePanics(t *testing.T) {
	h := New(uniformPi(8, 1), 4)
	for _, id := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Update(%d) should panic", id)
				}
			}()
			h.Update(id, 1)
		}()
	}
}

func TestBiasSimple(t *testing.T) {
	// 8 buckets, uniform pi=10, mid=4: top 2 and bottom 2 excluded.
	h := New(uniformPi(8, 10), 4)
	// Give two buckets huge mass (outliers up) and two negative mass
	// (outliers down); the rest get mass 100 each (avg 10 per coord).
	h.Update(0, 1e6)
	h.Update(1, -1e6)
	for id := 2; id < 8; id++ {
		h.Update(id, 100)
	}
	// One more top and one more bottom fall out of the middle; the
	// middle 4 all carry w=100, pi=10 → bias 10.
	if got := h.Bias(); math.Abs(got-10) > 1e-9 {
		t.Errorf("Bias = %f, want 10", got)
	}
}

func TestBiasMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := 4 + r.Intn(60)
		mid := 1 + r.Intn(s)
		pi := make([]float64, s)
		for i := range pi {
			pi[i] = float64(1 + r.Intn(20))
		}
		h := New(pi, mid)
		topSize := (s - mid) / 2
		botSize := (s - mid) - topSize
		w := make([]float64, s)
		for step := 0; step < 500; step++ {
			id := r.Intn(s)
			delta := float64(r.Intn(200) - 100)
			h.Update(id, delta)
			w[id] += delta
			if step%37 == 0 || step == 499 {
				wantW, wantPi := refMiddle(w, pi, topSize, botSize)
				gotW, gotPi := h.MiddleSums()
				if math.Abs(gotW-wantW) > 1e-6 || math.Abs(gotPi-wantPi) > 1e-6 {
					t.Fatalf("trial %d step %d (s=%d mid=%d): middle sums (%f,%f), want (%f,%f)",
						trial, step, s, mid, gotW, gotPi, wantW, wantPi)
				}
			}
		}
	}
}

// Property: heap middle sums always equal the sort reference, for any
// random update schedule, including negative and repeated updates.
func TestBiasHeapReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := 4 + r.Intn(30)
		mid := 1 + r.Intn(s)
		pi := make([]float64, s)
		for i := range pi {
			pi[i] = float64(r.Intn(5)) // includes zero-π buckets
		}
		// Ensure at least one positive π so Bias is defined.
		pi[r.Intn(s)] = 3
		h := New(pi, mid)
		topSize := (s - mid) / 2
		botSize := (s - mid) - topSize
		w := make([]float64, s)
		for step := 0; step < 200; step++ {
			// Only buckets with π > 0 can receive coordinates.
			id := r.Intn(s)
			if pi[id] == 0 {
				continue
			}
			delta := r.NormFloat64() * 50
			h.Update(id, delta)
			w[id] += delta
		}
		wantW, wantPi := refMiddle(w, pi, topSize, botSize)
		gotW, gotPi := h.MiddleSums()
		return math.Abs(gotW-wantW) < 1e-6 && math.Abs(gotPi-wantPi) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMidEqualsSAveragesEverything(t *testing.T) {
	// mid == s means no exclusion: bias is the global average.
	h := New(uniformPi(6, 5), 6)
	h.Update(0, 300)
	h.Update(5, 30)
	want := 330.0 / 30.0
	if got := h.Bias(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Bias = %f, want %f", got, want)
	}
}

func TestBiasDegenerateDenominator(t *testing.T) {
	// All π mass in the single top/bottom-excluded buckets: with s=3,
	// mid=1, top and bottom each exclude one bucket. Put all π in the
	// excluded ones.
	pi := []float64{10, 0, 10}
	h := New(pi, 1)
	h.Update(0, -50) // key -5: sorts to the bottom section
	h.Update(2, 100) // key 10: sorts to the top section
	// Middle bucket (π=0, key 0) carries no coordinates → fall back to
	// the global average 50/20.
	if got, want := h.Bias(), 2.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Bias = %f, want %f", got, want)
	}
}

func TestBiasEmptyHeapZero(t *testing.T) {
	h := New([]float64{0, 0}, 1)
	if h.Bias() != 0 {
		t.Error("Bias of all-zero-π heap should be 0")
	}
}

// The motivating scenario: most coordinates near a common bias, a few
// outliers; the Bias-Heap estimate must land near the true bias while
// the plain average is dragged away.
func TestBiasRobustToOutliers(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const s, mid = 64, 32
	const n = 10000
	pi := make([]float64, s)
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		b := r.Intn(s)
		assign[i] = b
		pi[b]++
	}
	h := New(pi, mid)
	const bias = 100.0
	var total float64
	for i := 0; i < n; i++ {
		v := bias + r.NormFloat64()*15
		if i < 5 { // five enormous outliers
			v = 1e7
		}
		h.Update(assign[i], v)
		total += v
	}
	got := h.Bias()
	if math.Abs(got-bias) > 10 {
		t.Errorf("Bias = %f, want within 10 of %f", got, bias)
	}
	avg := total / n
	if math.Abs(avg-bias) < math.Abs(got-bias) {
		t.Errorf("plain average %f should be worse than heap bias %f", avg, got)
	}
}

func TestWords(t *testing.T) {
	// 6 word arrays of 16 plus 32 flag bytes; π is the caller's.
	h := New(uniformPi(16, 1), 8)
	if h.Words() != 100 {
		t.Errorf("Words = %d, want 100", h.Words())
	}
}

func BenchmarkUpdate(b *testing.B) {
	const s = 4096
	pi := uniformPi(s, 100)
	h := New(pi, s/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(i&(s-1), float64(i%13)-6)
	}
}

func BenchmarkBiasQuery(b *testing.B) {
	const s = 4096
	h := New(uniformPi(s, 100), s/2)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		h.Update(r.Intn(s), r.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Bias()
	}
}

// MiddleSums exposes the maintained middle-section sums (Σw, Σπ) for
// verification against a sort-based reference.
func (h *Heap) MiddleSums() (wMid, piMid float64) {
	return h.wMid, h.piMid
}
