// Package ost implements an order-statistic treap over float64 keys
// with duplicates. Section 4.4 of the paper uses a balanced binary
// search tree to keep the Θ(log n) sampled coordinates of the ℓ1
// sketch sorted during streaming, so the median (the running bias
// estimate β̂) is available in O(log log n)-ish time per update; the
// treap provides expected O(log m) insert, delete, and k-th selection.
//
// Keys are ordered by one total order: the numeric order, with every
// NaN equal to every other NaN and above +Inf. A sampled value turns
// NaN when it absorbs +Inf and then −Inf, and it must still be found
// and removed when it next changes.
package ost

import (
	"math"
	"math/rand"
)

// less reports whether a sorts before b: the numeric order, with a
// NaN above every number and equal to another NaN.
func less(a, b float64) bool { return a < b || math.IsNaN(b) && !math.IsNaN(a) }

type node struct {
	key         float64
	prio        uint64
	count       int // multiplicity of key in this node
	size        int // total multiplicity in subtree
	left, right *node
}

func (n *node) subSize() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) fix() {
	n.size = n.count + n.left.subSize() + n.right.subSize()
}

// Tree is an order-statistic multiset of float64 keys. The zero value
// is not usable; construct with New.
type Tree struct {
	root *node
	rng  *rand.Rand
}

// New creates an empty tree drawing rotation priorities from seed.
func New(seed int64) *Tree {
	return &Tree{rng: rand.New(rand.NewSource(seed))}
}

// Len returns the number of stored keys (counting multiplicity).
func (t *Tree) Len() int { return t.root.subSize() }

// Insert adds one occurrence of key.
func (t *Tree) Insert(key float64) {
	t.root = t.insert(t.root, key)
}

func (t *Tree) insert(n *node, key float64) *node {
	if n == nil {
		return &node{key: key, prio: t.rng.Uint64(), count: 1, size: 1}
	}
	switch {
	case less(key, n.key):
		n.left = t.insert(n.left, key)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	case less(n.key, key):
		n.right = t.insert(n.right, key)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	default:
		n.count++
		n.size++
		return n
	}
	n.fix()
	return n
}

// Delete removes one occurrence of key; it reports whether the key was
// present.
func (t *Tree) Delete(key float64) bool {
	var ok bool
	t.root, ok = t.delete(t.root, key)
	return ok
}

func (t *Tree) delete(n *node, key float64) (*node, bool) {
	if n == nil {
		return nil, false
	}
	var ok bool
	switch {
	case less(key, n.key):
		n.left, ok = t.delete(n.left, key)
	case less(n.key, key):
		n.right, ok = t.delete(n.right, key)
	default:
		if n.count > 1 {
			n.count--
			n.size--
			return n, true
		}
		// Rotate the node down to a leaf position, then drop it.
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		if n.left.prio > n.right.prio {
			n = rotateRight(n)
			n.right, ok = t.delete(n.right, key)
		} else {
			n = rotateLeft(n)
			n.left, ok = t.delete(n.left, key)
		}
	}
	n.fix()
	return n, ok
}

// Kth returns the k-th smallest key, 0-based (counting multiplicity).
// It panics if k is out of range.
func (t *Tree) Kth(k int) float64 {
	if k < 0 || k >= t.Len() {
		panic("ost: rank out of range")
	}
	n := t.root
	for {
		ls := n.left.subSize()
		switch {
		case k < ls:
			n = n.left
		case k < ls+n.count:
			return n.key
		default:
			k -= ls + n.count
			n = n.right
		}
	}
}

// Median returns the median per the paper's Table 1 definition
// (midpoint average for even sizes). It panics on an empty tree.
func (t *Tree) Median() float64 {
	m := t.Len()
	if m == 0 {
		panic("ost: median of empty tree")
	}
	if m%2 == 1 {
		return t.Kth(m / 2)
	}
	return (t.Kth(m/2-1) + t.Kth(m/2)) / 2
}

// Rank returns the number of stored keys strictly smaller than key.
func (t *Tree) Rank(key float64) int {
	r := 0
	n := t.root
	for n != nil {
		switch {
		case less(key, n.key):
			n = n.left
		case less(n.key, key):
			r += n.left.subSize() + n.count
			n = n.right
		default:
			return r + n.left.subSize()
		}
	}
	return r
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}
