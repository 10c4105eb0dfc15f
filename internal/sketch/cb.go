package sketch

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/counterbraids"
)

// Typed Counter Braids errors, so callers can errors.Is against the
// constraint a braid hit.
var (
	// ErrInsertOnly is returned when an update violates the braid's
	// constraint: deltas must be non-negative integers.
	ErrInsertOnly = errors.New("sketch: counterbraids is insert-only (non-negative integer deltas)")
	// ErrDecodeBudget is returned when the braid cannot reconstruct its
	// counts — it was loaded beyond its decoding threshold (wraps
	// counterbraids.ErrNoConverge).
	ErrDecodeBudget = errors.New("sketch: counterbraids decode failed")
)

// cbDecodeIters bounds the min-sum iterations per braid layer of a
// decode. Below the decoding threshold the message passing settles in
// a handful of rounds; 32 matches the guidance on counterbraids.Decode.
const cbDecodeIters = 32

// CounterBraids adapts the two-layer Counter Braids structure of Lu et
// al. (SIGMETRICS 2008) to the Sketch interface, so the related work §2
// contrasts against is constructible through the same registry as the
// paper's own algorithms. The adapter makes the structure's constraints
// explicit as typed errors:
//
//   - insert-only: updates must be non-negative integers (ErrInsertOnly);
//   - decode-at-query: a braid has no per-coordinate query — the whole
//     vector is reconstructed by message passing the first time a query
//     arrives after a write, and the reconstruction fails with
//     ErrDecodeBudget once the braid is loaded past its decoding
//     threshold.
//
// Below the threshold the reconstruction is exact while the braid
// stores a fraction of the bits exact counters would need — that
// trade-off is the point of surfacing it next to the CM family.
type CounterBraids struct {
	br      *counterbraids.Braid
	decoded []float64
	fresh   bool
}

// NewCounterBraids creates a braid summarizing an n-dimensional
// insert-only vector, drawing hash functions from r. The braid's
// layers are sized by n alone (≈1.5·n shallow counters plus the deep
// second layer, the standard CB design rule); invalid dimensions
// return an ErrConfig-wrapped error.
func NewCounterBraids(n int, r *rand.Rand) (*CounterBraids, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: counterbraids dimension must be positive, got %d", ErrConfig, n)
	}
	return &CounterBraids{br: counterbraids.New(counterbraids.Config{N: n}, r)}, nil
}

// Update adds delta to coordinate i. The structure is insert-only:
// negative or fractional deltas panic with an ErrInsertOnly-wrapped
// error (use errors.Is to classify recovered panics).
func (c *CounterBraids) Update(i int, delta float64) {
	if i < 0 || i >= c.br.Dim() {
		panic(fmt.Sprintf("sketch: index %d out of range [0,%d)", i, c.br.Dim()))
	}
	if delta < 0 || float64(uint64(delta)) != delta {
		panic(fmt.Errorf("%w: counterbraids accepts only non-negative integer deltas, got %v", ErrInsertOnly, delta))
	}
	c.br.Update(i, delta)
	c.fresh = false
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j. The whole
// batch is validated (index ranges, insert-only deltas) before any
// counter moves, so a panic cannot leave the braid partially updated.
func (c *CounterBraids) UpdateBatch(idx []int, deltas []float64) {
	if len(idx) != len(deltas) {
		panic(fmt.Sprintf("sketch: batch index count %d != delta count %d", len(idx), len(deltas)))
	}
	for _, i := range idx {
		if i < 0 || i >= c.br.Dim() {
			panic(fmt.Sprintf("sketch: index %d out of range [0,%d)", i, c.br.Dim()))
		}
	}
	for _, d := range deltas {
		if d < 0 || float64(uint64(d)) != d {
			panic(fmt.Errorf("%w: counterbraids accepts only non-negative integer deltas, got %v", ErrInsertOnly, d))
		}
	}
	for j, i := range idx {
		c.br.Update(i, deltas[j])
	}
	c.fresh = false
}

// Decoded returns the reconstructed count vector, running the CB
// message-passing decode if a write happened since the last call and
// caching the result. Callers must not modify the returned slice. Past
// the decoding threshold the reconstruction fails with an
// ErrDecodeBudget-wrapped error (counterbraids.ErrNoConverge is in the
// chain).
func (c *CounterBraids) Decoded() ([]float64, error) {
	if c.fresh {
		return c.decoded, nil
	}
	x, err := c.br.Decode(cbDecodeIters)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDecodeBudget, err)
	}
	c.decoded, c.fresh = x, true
	return x, nil
}

// Query returns the reconstructed count of coordinate i, decoding the
// whole vector on the first query after a write (there is no
// per-coordinate read — that is the API criticism §2 makes concrete).
// A braid loaded past its decoding threshold panics with the
// ErrDecodeBudget-wrapped error Decoded returns; error-aware callers
// use Decoded directly.
func (c *CounterBraids) Query(i int) float64 {
	if i < 0 || i >= c.br.Dim() {
		panic(fmt.Sprintf("sketch: index %d out of range [0,%d)", i, c.br.Dim()))
	}
	x, err := c.Decoded()
	if err != nil {
		panic(err)
	}
	return x[i]
}

// QueryBatch writes the reconstructed count of idx[j] into out[j] for
// every j, sharing one decode across the batch. Same threshold
// behavior as Query.
func (c *CounterBraids) QueryBatch(idx []int, out []float64) {
	if len(idx) != len(out) {
		panic(fmt.Sprintf("sketch: batch index count %d != output count %d", len(idx), len(out)))
	}
	for _, i := range idx {
		if i < 0 || i >= c.br.Dim() {
			panic(fmt.Sprintf("sketch: index %d out of range [0,%d)", i, c.br.Dim()))
		}
	}
	x, err := c.Decoded()
	if err != nil {
		panic(err)
	}
	for j, i := range idx {
		out[j] = x[i]
	}
}

// Dim returns the flow universe size n.
func (c *CounterBraids) Dim() int { return c.br.Dim() }

// Words returns the storage cost in 64-bit words, rounding the braid's
// bit count up — the honest x-axis position for CB on the paper's
// size-versus-accuracy plots.
func (c *CounterBraids) Words() int { return (c.br.Bits() + 63) / 64 }

// MergeFrom adds another braid built with the same shape and seeds.
// Braids are linear in their counter state: layer-1 residues add mod
// 2^bits with carries pushed into layer 2, which reproduces exactly
// the braid of the concatenated streams. Mismatched shapes or seeds
// return ErrIncompatible.
func (c *CounterBraids) MergeFrom(other Linear) error {
	o, ok := other.(*CounterBraids)
	if !ok || !c.br.SameShape(o.br) {
		return ErrIncompatible
	}
	if err := c.br.MergeFrom(o.br); err != nil {
		return ErrIncompatible
	}
	c.fresh = false
	return nil
}

// Marshal serializes the braid's native two-layer counter state — no
// decode happens, so a braid past its decoding threshold still
// checkpoints losslessly.
func (c *CounterBraids) Marshal() []byte { return c.br.Marshal() }

// Unmarshal restores state captured by Marshal on a braid built with
// the same configuration and seeds.
func (c *CounterBraids) Unmarshal(b []byte) error {
	if err := c.br.Unmarshal(b); err != nil {
		return err
	}
	c.fresh = false
	return nil
}
