// Package core implements the paper's contribution: the bias-aware
// sketching and recovery schemes ℓ1-S/R (Algorithms 1–2, Theorem 3)
// and ℓ2-S/R (Algorithms 3–4, Theorem 4), their streaming
// implementations (§4.4, Algorithms 5–6), and the mean-heuristic
// variants ℓ1-mean and ℓ2-mean used as comparison points in §5.4.
//
// Both schemes factor into (a) a classical linear sketch of the input
// vector and (b) a bias estimator that watches the same update stream;
// recovery de-biases the sketch by the estimate β̂ before the usual
// Count-Median/Count-Sketch reconstruction and adds β̂ back at the end.
// One type, SR, implements both: the constructor picks the scheme
// (NewL1SR or NewL2SR, NewL1Basis or NewL2Basis), which fixes whether
// the rows are CM rows or CS rows with their signs, and the
// estimator's defaults.
//
// The ℓ2-S/R estimator orders its buckets only once a replica is read:
// the first β̂ settles it with one O(s) Bias-Heap rebuild (Algorithm 4),
// and from then on each update keeps the order (Algorithm 5). Replicas
// that are only written and merged, such as shards, window panes and
// tree aggregates, never order theirs.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/biasheap"
	"repro/internal/hashing"
	"repro/internal/ost"
)

// Estimator maintains a running estimate of the bias β of the input
// vector under streaming updates.
type Estimator interface {
	// Observe is called for every stream update x[i] += delta.
	Observe(i int, delta float64)
	// Bias returns the current estimate β̂.
	Bias() float64
	// Words returns the extra sketch size in 64-bit words.
	Words() int
	// Merge adds another estimator's state (for the distributed
	// model); it fails unless the other estimator has the same type
	// and randomness.
	Merge(other Estimator) error
	// State returns the estimator's data-dependent state as a flat
	// float64 slice (hash functions and sampled positions are shared
	// randomness, not state). SetState restores it; the two round-trip.
	State() []float64
	// SetState restores state captured by State; it fails if the
	// length does not match this estimator's shape.
	SetState(v []float64) error
}

// ErrIncompatibleEstimator is returned by Merge on type/seed mismatch.
var ErrIncompatibleEstimator = errors.New("core: incompatible estimators")

// EstimatorKind selects the bias estimator of a bias-aware sketch.
type EstimatorKind int

const (
	// EstimatorDefault picks the paper's estimator for the scheme:
	// sampled median for ℓ1-S/R, median buckets for ℓ2-S/R.
	EstimatorDefault EstimatorKind = iota
	// EstimatorSampledMedian is the ℓ1-S/R estimator (§4.2): the
	// median of Θ(log n) coordinates sampled with replacement.
	EstimatorSampledMedian
	// EstimatorMedianBucket is the ℓ2-S/R estimator (§4.3): average
	// of the coordinates hashed into the middle 2k buckets of a
	// CM-matrix row, in bucket-average order.
	EstimatorMedianBucket
	// EstimatorMean is the §5.4 heuristic: the plain mean of all
	// coordinates. No theoretical guarantee (§4.1), often fine in
	// practice on outlier-free data.
	EstimatorMean
)

// String returns the estimator name as used in the paper.
func (k EstimatorKind) String() string {
	switch k {
	case EstimatorDefault:
		return "default"
	case EstimatorSampledMedian:
		return "sampled-median"
	case EstimatorMedianBucket:
		return "median-bucket"
	case EstimatorMean:
		return "mean"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// ---------------------------------------------------------------------------
// Mean estimator (§4.1 / §5.4)

// meanEstimator tracks the running mean of the vector: total mass over
// dimension. It is trivially linear.
type meanEstimator struct {
	sum float64
	n   float64
}

// meanSeed is the mean estimator's seed: nothing but the dimension n.
type meanSeed int

func (n meanSeed) fresh() Estimator { return &meanEstimator{n: float64(n)} }

func (m *meanEstimator) Observe(_ int, delta float64) { m.sum += delta }

func (m *meanEstimator) Bias() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

func (m *meanEstimator) Words() int { return 1 }

func (m *meanEstimator) Merge(other Estimator) error {
	o, ok := other.(*meanEstimator)
	if !ok || o.n != m.n {
		return ErrIncompatibleEstimator
	}
	m.sum += o.sum
	return nil
}

func (m *meanEstimator) State() []float64 { return []float64{m.sum} }

func (m *meanEstimator) SetState(v []float64) error {
	if len(v) != 1 {
		return fmt.Errorf("core: mean estimator state length %d, want 1", len(v))
	}
	m.sum = v[0]
	return nil
}

// ---------------------------------------------------------------------------
// Sampled-median estimator (ℓ1-S/R, Algorithm 1 line 1 + Algorithm 2
// line 1, maintained in a balanced BST per §4.4)

// sampleSeed is the sampled-median estimator's seed: the sampling
// matrix Υ of Definition 3 (t rows each pick one uniformly random
// coordinate, with replacement), indexed by coordinate, and the seed of
// each replica's order-statistic tree.
type sampleSeed struct {
	slots    []int         // sampled coordinate per sample slot
	bySource map[int][]int // coordinate -> slots sampling it
	treeSeed int64
}

func newSampleSeed(n, t int, r *rand.Rand) *sampleSeed {
	if t <= 0 {
		panic("core: sample count must be positive")
	}
	sd := &sampleSeed{slots: make([]int, t), bySource: make(map[int][]int), treeSeed: r.Int63()}
	for s := range sd.slots {
		i := r.Intn(n)
		sd.slots[s] = i
		sd.bySource[i] = append(sd.bySource[i], s)
	}
	return sd
}

func (sd *sampleSeed) fresh() Estimator {
	e := &sampleMedianEstimator{sampleSeed: sd, vals: make([]float64, len(sd.slots)), tree: ost.New(sd.treeSeed)}
	e.tree.InsertN(0, len(sd.slots))
	return e
}

// sampleMedianEstimator estimates the bias as the median of the
// sampled values. An order-statistic tree keeps the values sorted so
// streaming updates cost O(log t) and the median O(log t).
type sampleMedianEstimator struct {
	*sampleSeed
	vals []float64 // current value of each slot
	tree *ost.Tree
}

func (e *sampleMedianEstimator) Observe(i int, delta float64) {
	for _, s := range e.bySource[i] {
		e.tree.Delete(e.vals[s])
		e.vals[s] += delta
		e.tree.Insert(e.vals[s])
	}
}

func (e *sampleMedianEstimator) Bias() float64 { return e.tree.Median() }

func (e *sampleMedianEstimator) Words() int { return len(e.slots) }

func (e *sampleMedianEstimator) Merge(other Estimator) error {
	o, ok := other.(*sampleMedianEstimator)
	if !ok || len(o.slots) != len(e.slots) {
		return ErrIncompatibleEstimator
	}
	for s := range e.slots {
		if e.slots[s] != o.slots[s] {
			return ErrIncompatibleEstimator
		}
	}
	// Sampled values are coordinates of x, hence linear: add, and move
	// in the order statistics only the slots whose value changed.
	for s, v := range o.vals {
		e.set(s, e.vals[s]+v)
	}
	return nil
}

// set stores v in slot s. A slot whose value keeps its bits stays where
// it is in the tree, so a merge or restore that misses most slots, such
// as adding one round's change, does tree work only for the slots it
// moves.
func (e *sampleMedianEstimator) set(s int, v float64) {
	if math.Float64bits(v) == math.Float64bits(e.vals[s]) {
		return
	}
	e.tree.Delete(e.vals[s])
	e.vals[s] = v
	e.tree.Insert(v)
}

func (e *sampleMedianEstimator) State() []float64 {
	return append([]float64(nil), e.vals...)
}

func (e *sampleMedianEstimator) SetState(v []float64) error {
	if len(v) != len(e.vals) {
		return fmt.Errorf("core: sample state length %d, want %d", len(v), len(e.vals))
	}
	for s, x := range v {
		e.set(s, x)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Median-bucket estimator (ℓ2-S/R, Algorithm 3 line 1 + Algorithm 4
// lines 1–2; streaming variant via the Bias-Heap of Algorithm 5)

// bucketSeed is the median-bucket estimator's seed: the hash g of the
// CM-matrix row Π(g) and its column counts π.
type bucketSeed struct {
	g  hashing.Pairwise
	pi []float64
	k  int
}

func newBucketSeed(n, s, k int, r *rand.Rand) *bucketSeed {
	if s < 2*k {
		panic(fmt.Sprintf("core: bucket count s=%d must be at least 2k=%d", s, 2*k))
	}
	// s ≥ 2k ≥ 2 is checked above, so the range error is unreachable.
	g, err := hashing.NewPairwise(r, s)
	if err != nil {
		panic(err)
	}
	bs := &bucketSeed{g: g, pi: make([]float64, s), k: k}
	for j := 0; j < n; j++ {
		bs.pi[g.Hash(uint64(j))]++
	}
	return bs
}

func (bs *bucketSeed) fresh() Estimator {
	e := &medianBucketEstimator{bucketSeed: bs, heap: biasheap.New(bs.pi, 2*bs.k)}
	e.w = e.heap.Masses()
	return e
}

// medianBucketEstimator maintains w = Π(g)x for a single CM row of s
// buckets, and estimates the bias as the average coordinate value
// inside the middle 2k buckets when buckets are ordered by w_i/π_i.
// The order is derived state, kept in a Bias-Heap over w. A replica
// starts unsettled, and updates, merges and restores only write w; the
// first Bias settles it with one O(s) Rebuild. A settled replica keeps
// the order per update until a merge or a restore unsettles it.
type medianBucketEstimator struct {
	*bucketSeed
	w    []float64 // the heap's own masses
	heap *biasheap.Heap

	// settled reports whether the heap's sections match w. Writers
	// (Observe, Merge, SetState) are exclusive with readers, but readers
	// of a quiescent replica (a shared snapshot, the snapshot-serving
	// contract of QueryBatch) may call Bias at once: mu lets one of them
	// settle it, and the store publishes the rebuilt heap to the rest.
	settled atomic.Bool
	mu      sync.Mutex
}

func (e *medianBucketEstimator) Observe(i int, delta float64) {
	b := e.g.Hash(uint64(i))
	if e.settled.Load() {
		e.heap.Update(b, delta) // adds delta to e.w[b]
		return
	}
	e.w[b] += delta
}

func (e *medianBucketEstimator) Bias() float64 {
	if !e.settled.Load() {
		e.settle()
	}
	return e.heap.Bias()
}

// settle orders the buckets of an unsettled replica: one Rebuild, which
// allocates nothing, and concurrent first readers wait for it.
func (e *medianBucketEstimator) settle() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.settled.Load() {
		e.heap.Rebuild()
		e.settled.Store(true)
	}
}

func (e *medianBucketEstimator) Words() int { return len(e.w) }

func (e *medianBucketEstimator) State() []float64 {
	return append([]float64(nil), e.w...)
}

func (e *medianBucketEstimator) SetState(v []float64) error {
	if len(v) != len(e.w) {
		return fmt.Errorf("core: bucket state length %d, want %d", len(v), len(e.w))
	}
	copy(e.w, v)
	e.settled.Store(false)
	return nil
}

func (e *medianBucketEstimator) Merge(other Estimator) error {
	o, ok := other.(*medianBucketEstimator)
	if !ok || o.g != e.g || o.k != e.k || len(o.w) != len(e.w) {
		return ErrIncompatibleEstimator
	}
	for b, m := range o.w {
		e.w[b] += m
	}
	e.settled.Store(false)
	return nil
}

// defaultSampleCount is the paper's Θ(log n) sample size (Algorithm 1
// uses 20·log n rows in the sampling matrix).
func defaultSampleCount(n int) int {
	t := int(20 * math.Ceil(math.Log2(float64(n)+1)))
	if t < 1 {
		t = 1
	}
	return t
}
