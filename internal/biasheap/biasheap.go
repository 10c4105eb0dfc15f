// Package biasheap implements the Bias-Heap of Algorithm 5: a
// structure over the s buckets of the CM-matrix Π(g) that maintains,
// under streaming updates, the sum of bucket masses w_i and column
// counts π_i restricted to the "middle" buckets in w_i/π_i order. The
// ℓ2 bias estimate of Algorithm 4,
//
//	β̂ = Σ_{middle} w_i / Σ_{middle} π_i,
//
// is then answerable in O(1) after O(log s) maintenance per update.
//
// Four indexed heaps partition the buckets twice (following the
// paper's A/B/C/D scheme): A holds the top section and B the rest
// (invariant min A ≥ max B), C holds the bottom section and D the rest
// (invariant max C ≤ min D). The middle is B ∩ D. An update changes a
// single bucket's key, so restoring each boundary needs at most one
// top swap.
package biasheap

import "fmt"

// Heap is the Bias-Heap. Construct with New.
type Heap struct {
	s        int
	topSize  int // |A|
	botSize  int // |C|
	w        []float64
	pi       []float64
	inA, inC []bool

	a, b, c, d *indexedHeap

	wTot, piTot      float64
	wA, piA, wC, piC float64
}

// New creates a Bias-Heap over s = len(pi) buckets, where pi[i] is the
// number of input coordinates hashing to bucket i (the coordinate-wise
// column sums of Π(g)) and mid is the number of middle buckets kept by
// the bias estimate (2k in Algorithm 4; Algorithm 5 sets mid = s/2 via
// its internal k = s/4). Requires 1 <= mid <= s.
func New(pi []float64, mid int) *Heap {
	s := len(pi)
	if s == 0 {
		panic("biasheap: no buckets")
	}
	if mid < 1 || mid > s {
		panic(fmt.Sprintf("biasheap: mid %d out of range [1,%d]", mid, s))
	}
	h := &Heap{
		s:       s,
		topSize: (s - mid) / 2,
		botSize: (s - mid) - (s-mid)/2,
		w:       make([]float64, s),
		pi:      append([]float64(nil), pi...),
		inA:     make([]bool, s),
		inC:     make([]bool, s),
	}
	for _, p := range pi {
		h.piTot += p
	}
	// All keys start equal (w = 0), so the initial sections follow id
	// order under the (key, id) total order: C gets the lowest ids, A
	// the highest. Section sizes never change (a swap moves one id each
	// way), so each heap is sized once.
	h.a = newIndexedHeap(h, false, h.topSize)   // min-heap: top = smallest of the top section
	h.b = newIndexedHeap(h, true, s-h.topSize)  // max-heap: top = largest of the rest
	h.c = newIndexedHeap(h, true, h.botSize)    // max-heap: top = largest of the bottom section
	h.d = newIndexedHeap(h, false, s-h.botSize) // min-heap: top = smallest of the rest
	for id := 0; id < s; id++ {
		if id >= s-h.topSize {
			h.inA[id] = true
			h.a.push(id)
			h.wA += h.w[id]
			h.piA += pi[id]
		} else {
			h.b.push(id)
		}
		if id < h.botSize {
			h.inC[id] = true
			h.c.push(id)
			h.wC += h.w[id]
			h.piC += pi[id]
		} else {
			h.d.push(id)
		}
	}
	return h
}

// key orders buckets by average coordinate value w/π; buckets with
// π = 0 can never receive updates and keep key 0.
func (h *Heap) key(id int) float64 {
	if h.pi[id] == 0 {
		return 0
	}
	return h.w[id] / h.pi[id]
}

// less is the strict total order (key, id) used by all four heaps.
func (h *Heap) less(x, y int) bool {
	kx, ky := h.key(x), h.key(y)
	if kx != ky {
		return kx < ky
	}
	return x < y
}

// Update adds delta to bucket id's mass and restores the section
// invariants. O(log s).
func (h *Heap) Update(id int, delta float64) {
	if id < 0 || id >= h.s {
		panic(fmt.Sprintf("biasheap: bucket %d out of range [0,%d)", id, h.s))
	}
	h.w[id] += delta
	h.wTot += delta
	if h.inA[id] {
		h.wA += delta
	}
	if h.inC[id] {
		h.wC += delta
	}
	// Re-seat the bucket inside its two heaps.
	if h.inA[id] {
		h.a.fix(id)
	} else {
		h.b.fix(id)
	}
	if h.inC[id] {
		h.c.fix(id)
	} else {
		h.d.fix(id)
	}
	// Boundary repairs (Algorithm 5 lines 13–16). A single key change
	// needs at most one swap per boundary; loops are belt-and-braces.
	for h.topSize > 0 && h.b.len() > 0 && h.less(h.a.top(), h.b.top()) {
		h.swapAB()
	}
	for h.botSize > 0 && h.d.len() > 0 && h.less(h.d.top(), h.c.top()) {
		h.swapCD()
	}
}

func (h *Heap) swapAB() {
	x, y := h.a.top(), h.b.top() // x leaves A, y enters A
	h.a.remove(x)
	h.b.remove(y)
	h.a.push(y)
	h.b.push(x)
	h.inA[x], h.inA[y] = false, true
	h.wA += h.w[y] - h.w[x]
	h.piA += h.pi[y] - h.pi[x]
}

func (h *Heap) swapCD() {
	x, y := h.c.top(), h.d.top() // x leaves C, y enters C
	h.c.remove(x)
	h.d.remove(y)
	h.c.push(y)
	h.d.push(x)
	h.inC[x], h.inC[y] = false, true
	h.wC += h.w[y] - h.w[x]
	h.piC += h.pi[y] - h.pi[x]
}

// Bias returns the current estimate (w − w_A − w_C)/(‖π‖₁ − π_A − π_C)
// (Algorithm 5 line 19). If the middle carries no coordinates it falls
// back to the global average, then to 0.
func (h *Heap) Bias() float64 {
	den := h.piTot - h.piA - h.piC
	if den > 0 {
		return (h.wTot - h.wA - h.wC) / den
	}
	if h.piTot > 0 {
		return h.wTot / h.piTot
	}
	return 0
}

// MiddleSums exposes the maintained middle-section sums (Σw, Σπ) for
// verification against a sort-based reference.
func (h *Heap) MiddleSums() (wMid, piMid float64) {
	return h.wTot - h.wA - h.wC, h.piTot - h.piA - h.piC
}

// Words returns the memory footprint in 64-bit words (w and π arrays
// plus the four position-index heaps).
func (h *Heap) Words() int { return 2*h.s + 4*h.s }

// indexedHeap is a binary heap of bucket ids with an id→position
// index, supporting key re-fix and removal by id in O(log s).
type indexedHeap struct {
	h   *Heap
	max bool
	ids []int
	pos []int // by bucket id; -1 when absent
}

// newIndexedHeap returns an empty heap with room for size ids.
func newIndexedHeap(h *Heap, max bool, size int) *indexedHeap {
	pos := make([]int, h.s)
	for i := range pos {
		pos[i] = -1
	}
	return &indexedHeap{h: h, max: max, ids: make([]int, 0, size), pos: pos}
}

func (q *indexedHeap) len() int { return len(q.ids) }

func (q *indexedHeap) top() int { return q.ids[0] }

// before reports whether id x should be above id y in this heap.
func (q *indexedHeap) before(x, y int) bool {
	if q.max {
		return q.h.less(y, x)
	}
	return q.h.less(x, y)
}

func (q *indexedHeap) push(id int) {
	q.ids = append(q.ids, id)
	q.pos[id] = len(q.ids) - 1
	q.siftUp(len(q.ids) - 1)
}

func (q *indexedHeap) remove(id int) {
	i := q.pos[id]
	if i < 0 {
		panic("biasheap: removing id not in heap")
	}
	last := len(q.ids) - 1
	q.swap(i, last)
	q.ids = q.ids[:last]
	q.pos[id] = -1
	if i < last {
		q.siftDown(q.siftUp(i))
	}
}

// fix restores the heap property after id's key changed; returns
// silently if id is not in this heap.
func (q *indexedHeap) fix(id int) {
	i := q.pos[id]
	if i < 0 {
		panic("biasheap: fixing id not in heap")
	}
	q.siftDown(q.siftUp(i))
}

func (q *indexedHeap) swap(i, j int) {
	q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
	q.pos[q.ids[i]] = i
	q.pos[q.ids[j]] = j
}

func (q *indexedHeap) siftUp(i int) int {
	for i > 0 {
		p := (i - 1) / 2
		if !q.before(q.ids[i], q.ids[p]) {
			break
		}
		q.swap(i, p)
		i = p
	}
	return i
}

func (q *indexedHeap) siftDown(i int) {
	n := len(q.ids)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.before(q.ids[l], q.ids[best]) {
			best = l
		}
		if r < n && q.before(q.ids[r], q.ids[best]) {
			best = r
		}
		if best == i {
			return
		}
		q.swap(i, best)
		i = best
	}
}
