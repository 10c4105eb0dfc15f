// Package biasheap implements the Bias-Heap of Algorithm 5: a
// structure over the s buckets of the CM-matrix Π(g) that keeps the
// sums of bucket masses w_i and column counts π_i over the "middle"
// buckets in w_i/π_i order. The ℓ2 bias estimate of Algorithm 4,
//
//	β̂ = Σ_{middle} w_i / Σ_{middle} π_i,
//
// is then answerable in O(1).
//
// Four indexed heaps partition the buckets twice (following the
// paper's A/B/C/D scheme): A holds the top section and B the rest
// (invariant min A ≥ max B), C holds the bottom section and D the rest
// (invariant max C ≤ min D). The middle is B ∩ D. Buckets are ordered
// by (w_i/π_i, i), a strict total order, so the sections are a
// function of the masses alone.
//
// The paper offers two ways to find the middle, and the heap has both.
// Update applies one stream update in O(log s): a single key change
// needs at most one top swap per boundary (Algorithm 5). Rebuild
// re-derives every section from the masses in O(s) by selection and
// bottom-up heapify (Algorithm 4's one-time ordering). A caller that
// is not reading the heap may write the masses directly, through
// Masses, and rebuild once before its next read: ℓ2-S/R replicas do so
// until they are first read, and again after each merge or restore.
// Either way the heap sums w and π over the middle only, so the mass
// of an outlier, which ends in A or C, never shares a rounded running
// total with the crowd's.
package biasheap

import (
	"fmt"
	"math/bits"
	"sort"
)

// Heap is the Bias-Heap. Construct with New.
type Heap struct {
	s        int
	topSize  int       // |A|
	botSize  int       // |C|
	w        []float64 // bucket masses
	pi       []float64 // column counts: the caller's slice, only read
	keys     []float64 // w_i/π_i, the first field of the order
	inA, inC []bool

	// A and B share one id array laid out [B | A] and one position
	// index, as C and D share [C | D]: every bucket sits in exactly one
	// heap of each pair.
	ab, cd     []int
	a, b, c, d indexedHeap

	wMid, piMid float64 // sums over the middle B ∩ D
	wTot, piTot float64 // sums over every bucket, for the degenerate fallback
}

// New creates a Bias-Heap over s = len(pi) buckets, where pi[i] is the
// number of input coordinates hashing to bucket i (the coordinate-wise
// column sums of Π(g)) and mid is the number of middle buckets kept by
// the bias estimate (2k in Algorithm 4; Algorithm 5 sets mid = s/2 via
// its internal k = s/4). Requires 1 <= mid <= s. The heap keeps pi
// without copying it, so replicas over one configuration share it; pi
// must not change while the heap is in use.
func New(pi []float64, mid int) *Heap {
	s := len(pi)
	if s == 0 {
		panic("biasheap: no buckets")
	}
	if mid < 1 || mid > s {
		panic(fmt.Sprintf("biasheap: mid %d out of range [1,%d]", mid, s))
	}
	top := (s - mid) / 2
	h := &Heap{
		s:       s,
		topSize: top,
		botSize: (s - mid) - top,
		w:       make([]float64, s),
		pi:      pi,
		keys:    make([]float64, s),
		inA:     make([]bool, s),
		inC:     make([]bool, s),
		ab:      make([]int, s),
		cd:      make([]int, s),
	}
	nb, bot := s-top, h.botSize
	posAB, posCD := make([]int, s), make([]int, s)
	// Section sizes never change (a swap moves one id each way), so
	// each heap is a fixed window of its pair's array.
	h.a = indexedHeap{keys: h.keys, ids: h.ab[nb:], pos: posAB}                 // min-heap: top = smallest of the top section
	h.b = indexedHeap{keys: h.keys, max: true, ids: h.ab[:nb:nb], pos: posAB}   // max-heap: top = largest of the rest
	h.c = indexedHeap{keys: h.keys, max: true, ids: h.cd[:bot:bot], pos: posCD} // max-heap: top = largest of the bottom section
	h.d = indexedHeap{keys: h.keys, ids: h.cd[bot:], pos: posCD}                // min-heap: top = smallest of the rest
	// Every key starts at 0, so the (key, id) order is id order: C
	// holds the lowest ids and A the highest. Ascending ids already
	// form a min-heap and descending ids a max-heap, so the four heaps
	// are laid out directly.
	for i := range h.b.ids {
		h.b.ids[i] = nb - 1 - i
	}
	for i := range h.a.ids {
		h.a.ids[i] = nb + i
		h.inA[nb+i] = true
	}
	for i := range h.c.ids {
		h.c.ids[i] = bot - 1 - i
		h.inC[i] = true
	}
	for i := range h.d.ids {
		h.d.ids[i] = bot + i
	}
	for _, q := range h.heaps() {
		q.index()
	}
	h.sum()
	return h
}

func (h *Heap) heaps() [4]*indexedHeap { return [4]*indexedHeap{&h.a, &h.b, &h.c, &h.d} }

// key orders buckets by average coordinate value w/π; a bucket with
// π = 0 can never receive updates and keeps key 0.
func key(w, pi float64) float64 {
	if pi == 0 {
		return 0
	}
	return w / pi
}

// less is the strict total order (key, id) used by all four heaps and
// by Rebuild's selection.
func less(keys []float64, x, y int) bool {
	kx, ky := keys[x], keys[y]
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
	// The moving bucket's mass leaves the middle sums while it is
	// re-seated and returns once its section is known.
	h.shiftMid(id, -1)
	h.w[id] += delta
	h.wTot += delta
	h.keys[id] = key(h.w[id], h.pi[id])
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
	for h.topSize > 0 && h.b.len() > 0 && less(h.keys, h.a.top(), h.b.top()) {
		h.swapAB(id)
	}
	for h.botSize > 0 && h.d.len() > 0 && less(h.keys, h.d.top(), h.c.top()) {
		h.swapCD(id)
	}
	h.shiftMid(id, 1)
}

// shiftMid adds sign·(w, π) of bucket id to the middle sums when the
// bucket is in the middle.
func (h *Heap) shiftMid(id int, sign float64) {
	if !h.inA[id] && !h.inC[id] {
		h.wMid += sign * h.w[id]
		h.piMid += sign * h.pi[id]
	}
}

// swapAB moves A's smallest bucket to B and B's largest to A. Each
// bucket but the moving one carries its mass into or out of the middle
// as its A flag flips.
func (h *Heap) swapAB(moving int) {
	x, y := h.a.top(), h.b.top() // x leaves A, y enters A
	h.a.remove(x)
	h.b.remove(y)
	h.a.push(y)
	h.b.push(x)
	if y != moving {
		h.shiftMid(y, -1)
	}
	h.inA[x], h.inA[y] = false, true
	if x != moving {
		h.shiftMid(x, 1)
	}
}

// swapCD moves C's largest bucket to D and D's smallest to C, with the
// middle sums following as in swapAB.
func (h *Heap) swapCD(moving int) {
	x, y := h.c.top(), h.d.top() // x leaves C, y enters C
	h.c.remove(x)
	h.d.remove(y)
	h.c.push(y)
	h.d.push(x)
	if y != moving {
		h.shiftMid(y, -1)
	}
	h.inC[x], h.inC[y] = false, true
	if x != moving {
		h.shiftMid(x, 1)
	}
}

// Masses returns the bucket masses w. The slice is the heap's own: a
// caller may write it in place (stream updates, a merge adding another
// replica's masses, a restore copying saved ones) and must then call
// Rebuild before any other method.
func (h *Heap) Masses() []float64 { return h.w }

// Rebuild re-derives the keys, the four sections and the sums from the
// masses: it selects the bottom and top sections under the (key, id)
// order, heapifies each heap bottom-up, and sums the middle in id
// order. O(s) expected, O(s log s) at worst. Because the order is
// strict, the sections it finds are the ones Update would have reached
// through the same masses.
func (h *Heap) Rebuild() {
	for id, w := range h.w {
		h.keys[id] = key(w, h.pi[id])
	}
	ord := h.ab // [B | A] = [C | middle | A]
	for i := range ord {
		ord[i] = i
	}
	rounds := 2 * bits.Len(uint(h.s))
	h.selectSmallest(ord, h.botSize, rounds)
	h.selectSmallest(ord[h.botSize:], h.s-h.topSize-h.botSize, rounds)
	for i, id := range ord {
		h.inC[id] = i < h.botSize
		h.inA[id] = i >= h.s-h.topSize
	}
	copy(h.cd, ord) // [C | D]
	for _, q := range h.heaps() {
		q.heapify()
	}
	h.sum()
}

// sum sets the totals and the middle sums by direct summation in id
// order.
func (h *Heap) sum() {
	var wMid, piMid, wTot, piTot float64
	for id, w := range h.w {
		p := h.pi[id]
		wTot += w
		piTot += p
		if !h.inA[id] && !h.inC[id] {
			wMid += w
			piMid += p
		}
	}
	h.wMid, h.piMid, h.wTot, h.piTot = wMid, piMid, wTot, piTot
}

// selectSmallest reorders ids so that ids[:k] holds the k smallest
// under the (key, id) order: quickselect around pseudo-random pivots,
// expected O(len(ids)). Once the given rounds are spent it sorts what
// is left, which keeps the worst case O(n log n) when rounds is
// O(log n).
func (h *Heap) selectSmallest(ids []int, k, rounds int) {
	lo, hi := 0, len(ids)
	rnd := uint64(0x9e3779b97f4a7c15) // xorshift state; any pivots give the same sections
	for ; lo < k && k < hi; rounds-- {
		if rounds <= 0 {
			rest := ids[lo:hi]
			sort.Slice(rest, func(i, j int) bool { return less(h.keys, rest[i], rest[j]) })
			return
		}
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		p := lo + h.partition(ids[lo:hi], int(rnd%uint64(hi-lo)))
		if p < k {
			lo = p + 1
		} else {
			hi = p
		}
	}
}

// partition splits ids around ids[p] and returns the pivot's final
// index: every id before it is smaller, every id after it larger. The
// loop swaps unconditionally and advances by the comparison, so it
// carries no branch on the data.
func (h *Heap) partition(ids []int, p int) int {
	n := len(ids)
	ids[p], ids[n-1] = ids[n-1], ids[p]
	pivot, i := ids[n-1], 0
	for j, id := range ids[:n-1] {
		ids[j] = ids[i]
		ids[i] = id
		i += b2i(less(h.keys, id, pivot))
	}
	ids[i], ids[n-1] = ids[n-1], ids[i]
	return i
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Bias returns the current estimate Σ_mid w / Σ_mid π, which
// Algorithm 5 line 19 writes as (w − w_A − w_C)/(‖π‖₁ − π_A − π_C);
// summing the middle itself keeps the masses in A and C, outliers
// among them, out of its rounding. If the middle carries no
// coordinates it falls back to the global average, then to 0.
func (h *Heap) Bias() float64 {
	if h.piMid > 0 {
		return h.wMid / h.piMid
	}
	if h.piTot > 0 {
		return h.wTot / h.piTot
	}
	return 0
}

// MiddleSums exposes the maintained middle-section sums (Σw, Σπ) for
// verification against a sort-based reference.
func (h *Heap) MiddleSums() (wMid, piMid float64) {
	return h.wMid, h.piMid
}

// Words returns the memory the heap owns in 64-bit words: the masses
// and keys, the two id arrays, the two position indexes, and the two
// section flag arrays at one byte per bucket. π is the caller's.
func (h *Heap) Words() int { return 6*h.s + (2*h.s+7)/8 }

// indexedHeap is a binary heap of bucket ids with an id→position
// index, supporting key re-fix and removal by id in O(log s).
type indexedHeap struct {
	keys []float64 // the Heap's keys
	max  bool
	ids  []int
	pos  []int // by bucket id, shared with the other heap of the pair; -1 while a swap moves it
}

func (q *indexedHeap) len() int { return len(q.ids) }

func (q *indexedHeap) top() int { return q.ids[0] }

// before reports whether id x should be above id y in this heap.
func (q *indexedHeap) before(x, y int) bool {
	if q.max {
		return less(q.keys, y, x)
	}
	return less(q.keys, x, y)
}

// index records every id's position.
func (q *indexedHeap) index() {
	for i, id := range q.ids {
		q.pos[id] = i
	}
}

// heapify restores the heap property over any order of ids bottom-up
// (Floyd's construction, O(len(ids))).
func (q *indexedHeap) heapify() {
	q.index()
	for i := len(q.ids)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
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

// fix restores the heap property after id's key changed.
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

// siftUp moves the id at i up to its place and returns that place. It
// carries the id in hand and shifts parents down into the hole, so
// each level writes one id and one position.
func (q *indexedHeap) siftUp(i int) int {
	id := q.ids[i]
	for i > 0 {
		p := (i - 1) / 2
		if !q.before(id, q.ids[p]) {
			break
		}
		q.ids[i] = q.ids[p]
		q.pos[q.ids[i]] = i
		i = p
	}
	q.ids[i] = id
	q.pos[id] = i
	return i
}

// siftDown moves the id at i down to its place, shifting the better
// child up into the hole at each level.
func (q *indexedHeap) siftDown(i int) {
	ids, n := q.ids, len(q.ids)
	id := ids[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			c += b2i(q.before(ids[r], ids[c]))
		}
		if !q.before(ids[c], id) {
			break
		}
		ids[i] = ids[c]
		q.pos[ids[i]] = i
		i = c
	}
	ids[i] = id
	q.pos[id] = i
}
