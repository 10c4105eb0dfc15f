package biasheap

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rebuilt returns a heap over pi whose masses are w, set in bulk and
// rebuilt once.
func rebuilt(pi, w []float64, mid int) *Heap {
	h := New(pi, mid)
	copy(h.Masses(), w)
	h.Rebuild()
	return h
}

// checkHeap verifies every structural invariant: section sizes, the
// heap property and position index of all four heaps, the flags, and
// the two boundaries of the (key, id) order.
func checkHeap(t *testing.T, h *Heap) {
	t.Helper()
	if h.a.len() != h.topSize || h.b.len() != h.s-h.topSize ||
		h.c.len() != h.botSize || h.d.len() != h.s-h.botSize {
		t.Fatalf("section sizes A%d B%d C%d D%d for s=%d top=%d bot=%d",
			h.a.len(), h.b.len(), h.c.len(), h.d.len(), h.s, h.topSize, h.botSize)
	}
	for name, q := range map[string]*indexedHeap{"A": &h.a, "B": &h.b, "C": &h.c, "D": &h.d} {
		for i, id := range q.ids {
			if q.pos[id] != i {
				t.Fatalf("%s: pos[%d] = %d, want %d", name, id, q.pos[id], i)
			}
			if i > 0 && q.before(id, q.ids[(i-1)/2]) {
				t.Fatalf("%s: heap property broken at %d", name, i)
			}
		}
	}
	for _, id := range h.a.ids {
		if !h.inA[id] {
			t.Fatalf("bucket %d in A without its flag", id)
		}
	}
	for _, id := range h.b.ids {
		if h.inA[id] {
			t.Fatalf("bucket %d in B with the A flag", id)
		}
	}
	for _, id := range h.c.ids {
		if !h.inC[id] {
			t.Fatalf("bucket %d in C without its flag", id)
		}
	}
	for _, id := range h.d.ids {
		if h.inC[id] {
			t.Fatalf("bucket %d in D with the C flag", id)
		}
	}
	if h.topSize > 0 && h.b.len() > 0 && less(h.keys, h.a.top(), h.b.top()) {
		t.Fatal("min A below max B")
	}
	if h.botSize > 0 && h.d.len() > 0 && less(h.keys, h.d.top(), h.c.top()) {
		t.Fatal("min D below max C")
	}
}

// sameHeap requires two heaps over the same masses to agree on every
// bucket's sections and on the sums and estimate bit for bit.
func sameHeap(t *testing.T, got, want *Heap) {
	t.Helper()
	for id := 0; id < want.s; id++ {
		if got.inA[id] != want.inA[id] || got.inC[id] != want.inC[id] {
			t.Fatalf("bucket %d: sections (A %v, C %v), want (A %v, C %v)",
				id, got.inA[id], got.inC[id], want.inA[id], want.inC[id])
		}
	}
	gw, gp := got.MiddleSums()
	ww, wp := want.MiddleSums()
	if math.Float64bits(gw) != math.Float64bits(ww) || math.Float64bits(gp) != math.Float64bits(wp) {
		t.Fatalf("middle sums (%v, %v), want (%v, %v)", gw, gp, ww, wp)
	}
	if g, w := got.Bias(), want.Bias(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("Bias %v, want %v", g, w)
	}
}

// matchesRef requires the heap's middle sums to equal the sort-based
// reference exactly, as they must on integer masses.
func matchesRef(t *testing.T, h *Heap, w []float64) {
	t.Helper()
	ww, wp := refMiddle(w, h.pi, h.topSize, h.botSize)
	gw, gp := h.MiddleSums()
	if gw != ww || gp != wp {
		t.Fatalf("middle sums (%v, %v), reference (%v, %v)", gw, gp, ww, wp)
	}
}

// Property: a heap rebuilt from masses and a heap fed the updates that
// produced them agree exactly, for every s in [1, 200] drawn, every
// mid, π with zeros and small integer deltas that make ties common,
// and they keep agreeing through further updates.
func TestRebuildMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		s := 1 + r.Intn(200)
		pi := make([]float64, s)
		for i := range pi {
			pi[i] = float64(r.Intn(4))
		}
		for mid := 1; mid <= s; mid++ {
			inc := New(pi, mid)
			w := make([]float64, s)
			for step := 0; step < 2*s; step++ {
				id, delta := r.Intn(s), float64(r.Intn(7)-3)
				inc.Update(id, delta)
				w[id] += delta
			}
			reb := rebuilt(pi, w, mid)
			checkHeap(t, reb)
			sameHeap(t, reb, inc)
			matchesRef(t, reb, w)
			for step := 0; step < 8; step++ {
				id, delta := r.Intn(s), float64(r.Intn(7)-3)
				inc.Update(id, delta)
				reb.Update(id, delta)
				w[id] += delta
			}
			checkHeap(t, reb)
			sameHeap(t, reb, inc)
			matchesRef(t, reb, w)
			matchesRef(t, inc, w)
		}
	}
}

// On non-integer masses the rebuilt middle sums are the direct sums in
// id order over the middle the sort reference finds, bit for bit.
func TestRebuildSumsMiddleInIDOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := 1 + r.Intn(300)
		mid := 1 + r.Intn(s)
		pi := make([]float64, s)
		w := make([]float64, s)
		for i := range pi {
			pi[i] = float64(r.Intn(30))
			w[i] = r.NormFloat64() * 1e3
		}
		h := rebuilt(pi, w, mid)
		checkHeap(t, h)
		ids := make([]int, s)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool { return less(h.keys, ids[a], ids[b]) })
		inMid := make([]bool, s)
		for _, id := range ids[h.botSize : s-h.topSize] {
			inMid[id] = true
		}
		var wantW, wantPi float64
		for id := range w {
			if inMid[id] {
				wantW += w[id]
				wantPi += pi[id]
			}
		}
		gotW, gotPi := h.MiddleSums()
		if math.Float64bits(gotW) != math.Float64bits(wantW) || math.Float64bits(gotPi) != math.Float64bits(wantPi) {
			t.Fatalf("trial %d (s=%d mid=%d): middle sums (%v, %v), id-order sums (%v, %v)",
				trial, s, mid, gotW, gotPi, wantW, wantPi)
		}
	}
}

// pushed builds a fresh heap the way New did before its direct layout:
// the sections by id (all keys are 0), then every id pushed through
// siftUp in id order, and the sums accumulated along the way.
func pushed(pi []float64, mid int) *Heap {
	ref := New(pi, mid)
	for _, q := range ref.heaps() {
		q.ids = q.ids[:0]
	}
	ref.wMid, ref.piMid, ref.piTot = 0, 0, 0
	for id := 0; id < ref.s; id++ {
		ref.inA[id] = id >= ref.s-ref.topSize
		ref.inC[id] = id < ref.botSize
		if ref.inA[id] {
			ref.a.push(id)
		} else {
			ref.b.push(id)
		}
		if ref.inC[id] {
			ref.c.push(id)
		} else {
			ref.d.push(id)
		}
		ref.piTot += pi[id]
		ref.shiftMid(id, 1)
	}
	return ref
}

// New's direct layout must equal pushing the ids one by one: the same
// tops, sections and sums, for small and large s and every mid. The
// pushes cost O(s log s) per mid, so -short visits every 37th mid of
// the largest s (and its last).
func TestNewLayoutMatchesPushes(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, s := range []int{1, 2, 3, 7, 64, 4096} {
		pi := make([]float64, s)
		for i := range pi {
			pi[i] = float64(r.Intn(5))
		}
		for mid := 1; mid <= s; mid++ {
			if testing.Short() && s > 64 && mid%37 != 1 && mid != s {
				continue
			}
			h, ref := New(pi, mid), pushed(pi, mid)
			checkHeap(t, h)
			sameHeap(t, h, ref)
			for _, p := range [][2]*indexedHeap{{&h.a, &ref.a}, {&h.b, &ref.b}, {&h.c, &ref.c}, {&h.d, &ref.d}} {
				if p[0].len() > 0 && p[0].top() != p[1].top() {
					t.Fatalf("s=%d mid=%d: top %d, pushed top %d", s, mid, p[0].top(), p[1].top())
				}
			}
		}
	}
}

// Rebuild on ordered keys (sorted, reversed, all equal, organ-pipe)
// still finds the right sections.
func TestRebuildOrderedKeys(t *testing.T) {
	const s, mid = 1000, 300
	pi := uniformPi(s, 2)
	for name, mass := range map[string]func(id int) float64{
		"ascending":  func(id int) float64 { return float64(id) },
		"descending": func(id int) float64 { return float64(-id) },
		"equal":      func(int) float64 { return 7 },
		"organ-pipe": func(id int) float64 { return float64(min(id, s-id)) },
	} {
		t.Run(name, func(t *testing.T) {
			w := make([]float64, s)
			for id := range w {
				w[id] = mass(id)
			}
			h := rebuilt(pi, w, mid)
			checkHeap(t, h)
			matchesRef(t, h, w)
		})
	}
}

// selectSmallest splits at k whatever its round budget, including none
// (an immediate sort) and budgets that run out midway.
func TestSelectSmallestAnyBudget(t *testing.T) {
	const s = 500
	r := rand.New(rand.NewSource(44))
	h := New(uniformPi(s, 3), 100)
	for id := range h.w {
		h.w[id] = float64(r.Intn(40))
	}
	h.Rebuild()
	for _, k := range []int{0, 1, 137, 250, 499, 500} {
		for rounds := 0; rounds <= 6; rounds++ {
			ids := r.Perm(s)
			h.selectSmallest(ids, k, rounds)
			if k == 0 || k == s {
				continue
			}
			maxLeft, minRight := ids[0], ids[k]
			for _, id := range ids[:k] {
				if less(h.keys, maxLeft, id) {
					maxLeft = id
				}
			}
			for _, id := range ids[k:] {
				if less(h.keys, id, minRight) {
					minRight = id
				}
			}
			if !less(h.keys, maxLeft, minRight) {
				t.Fatalf("k=%d rounds=%d: largest of the first k is not below the rest", k, rounds)
			}
		}
	}
}

func BenchmarkRebuild(b *testing.B) {
	for _, s := range []int{4096, 1 << 16} {
		b.Run(fmt.Sprint(s), func(b *testing.B) {
			r := rand.New(rand.NewSource(45))
			h := New(uniformPi(s, 16), s/2)
			for id := range h.Masses() {
				h.Masses()[id] = float64(r.Intn(3200))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Rebuild()
			}
		})
	}
}
