// Package counterbraids implements Counter Braids (Lu, Montanari,
// Prabhakar, Dharmapurikar, Kabbani — SIGMETRICS 2008), the related
// sketch §2 of the paper contrasts against: a bit-efficient per-flow
// counter structure whose counters are "braided" — shallow first-layer
// counters whose overflow bits are shared in a smaller second layer —
// and whose decoding is an iterative message-passing (min-sum)
// algorithm run layer by layer.
//
// The paper's two criticisms are directly visible in this API:
// decoding reconstructs the whole vector at once (there is no Query
// method), and the structure needs the stream to be insert-only and
// the flow universe enumerable at decode time. In exchange, when the
// load is below the decoding threshold the reconstruction is *exact*
// using a fraction of the bits exact counters would need.
package counterbraids

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/hashing"
)

// Config shapes a two-layer braid.
type Config struct {
	N int // flow universe size (vector dimension)

	// Layer1 is the number of first-layer counters (≈ 1.5·N for
	// exact decoding at d=3 per the CB threshold).
	Layer1 int
	// Layer1Bits is the width of a first-layer counter; overflow
	// beyond 2^Layer1Bits−1 is carried into layer 2. Size it so that
	// overflow is rare: the layer-2 decode needs the count of
	// overflowing layer-1 counters to stay below ≈ Layer2/1.3.
	Layer1Bits int
	// Layer2 is the number of second-layer (deep) counters. Sizing
	// rule: the layer-2 min-sum needs either the dense threshold
	// (Layer2 ≳ 1.3·Layer1, when most layer-1 counters overflow) or
	// enough empty layer-2 counters to prove zeros (Layer2 ≳ 5·D·F
	// where F is the number of overflowing layer-1 counters).
	Layer2 int
	// D is the number of layer-1 counters per flow and of layer-2
	// counters per layer-1 counter (the braid degree). 3 is standard.
	D int
}

func (c Config) withDefaults() Config {
	if c.Layer1 == 0 {
		c.Layer1 = c.N*3/2 + 8
	}
	if c.Layer1Bits == 0 {
		// Deep enough that layer-1 overflow is the exception: the
		// layer-2 stage can only decode when the number of
		// *overflowing* layer-1 counters is below its own min-sum
		// threshold (≈ Layer2/1.3). This is the CB design rule —
		// layer 1 absorbs the bulk of the traffic, layer 2 only the
		// rare carries.
		c.Layer1Bits = 12
	}
	if c.Layer2 == 0 {
		c.Layer2 = c.Layer1/4 + 8
	}
	if c.D == 0 {
		c.D = 3
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("counterbraids: N must be positive, got %d", c.N)
	}
	if c.Layer1 <= 0 || c.Layer2 <= 0 {
		return fmt.Errorf("counterbraids: layer sizes must be positive")
	}
	if c.Layer1Bits < 1 || c.Layer1Bits > 62 {
		return fmt.Errorf("counterbraids: Layer1Bits %d out of [1,62]", c.Layer1Bits)
	}
	if c.D < 2 || c.D > 8 {
		return fmt.Errorf("counterbraids: braid degree D must be in [2,8], got %d", c.D)
	}
	return nil
}

// Braid is a two-layer counter braid. Insert-only.
type Braid struct {
	cfg  Config
	cap1 uint64 // 2^Layer1Bits − 1, the layer-1 counter ceiling

	h1 hashing.Family // flows -> layer-1 counters, D members
	h2 hashing.Family // layer-1 counters -> layer-2 counters, D members

	c1 []uint64 // layer-1 stored values (mod 2^bits)
	c2 []uint64 // layer-2 counters (deep)
}

// New creates a braid, drawing hash functions from r.
func New(cfg Config, r *rand.Rand) *Braid {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Validate has ensured both layer sizes are positive, so the family
	// constructors cannot fail on range.
	h1, err := hashing.NewFamily(r, cfg.D, cfg.Layer1)
	if err != nil {
		panic(err)
	}
	h2, err := hashing.NewFamily(r, cfg.D, cfg.Layer2)
	if err != nil {
		panic(err)
	}
	return &Braid{
		cfg:  cfg,
		cap1: (1 << uint(cfg.Layer1Bits)) - 1,
		h1:   h1,
		h2:   h2,
		c1:   make([]uint64, cfg.Layer1),
		c2:   make([]uint64, cfg.Layer2),
	}
}

// Update adds delta (a non-negative integer) to flow i: each of the
// flow's D layer-1 counters advances, carrying overflow into its D
// layer-2 counters.
func (b *Braid) Update(i int, delta float64) {
	if i < 0 || i >= b.cfg.N {
		panic(fmt.Sprintf("counterbraids: flow %d out of range [0,%d)", i, b.cfg.N))
	}
	d := uint64(delta)
	if delta < 0 || float64(d) != delta {
		panic("counterbraids: updates must be non-negative integers (insert-only)")
	}
	for t := 0; t < b.cfg.D; t++ {
		j := b.h1[t].Hash(uint64(i))
		sum := b.c1[j] + d
		b.c1[j] = sum & b.cap1
		if carry := sum >> uint(b.cfg.Layer1Bits); carry > 0 {
			for u := 0; u < b.cfg.D; u++ {
				b.c2[b.h2[u].Hash(uint64(j))] += carry
			}
		}
	}
}

// Bits returns the storage cost in bits: shallow layer-1 counters plus
// 64-bit layer-2 counters. (This is the quantity Counter Braids
// optimizes; compare with 64·N for exact per-flow counters.)
func (b *Braid) Bits() int {
	return b.cfg.Layer1*b.cfg.Layer1Bits + 64*b.cfg.Layer2
}

// Dim returns the flow universe size.
func (b *Braid) Dim() int { return b.cfg.N }

// ErrNoConverge is reported when message passing does not settle; the
// braid was loaded beyond its decoding threshold.
var ErrNoConverge = errors.New("counterbraids: decoding did not converge (braid overloaded)")

// Decode reconstructs all N flow counts, layer by layer as the CB
// paper prescribes: first recover each layer-1 counter's overflow
// count from layer 2 by message passing, rebuild the exact layer-1
// values, then recover the flows from layer 1 by message passing.
// maxIter bounds the min-sum iterations per layer (32 is plenty below
// threshold).
func (b *Braid) Decode(maxIter int) ([]float64, error) {
	// Stage 1: unknowns = per-layer-1-counter overflow carries;
	// "counters" = layer 2.
	memb2 := make([][]int, b.cfg.Layer1)
	for j := 0; j < b.cfg.Layer1; j++ {
		m := make([]int, b.cfg.D)
		for u := 0; u < b.cfg.D; u++ {
			m[u] = b.h2[u].Hash(uint64(j))
		}
		memb2[j] = m
	}
	over, err := minSum(memb2, b.c2, b.cfg.Layer2, maxIter)
	if err != nil {
		return nil, fmt.Errorf("layer 2: %w", err)
	}

	// Rebuild full layer-1 values.
	v1 := make([]uint64, b.cfg.Layer1)
	for j := range v1 {
		v1[j] = b.c1[j] + over[j]<<uint(b.cfg.Layer1Bits)
	}

	// Stage 2: unknowns = flows; counters = reconstructed layer 1.
	memb1 := make([][]int, b.cfg.N)
	for f := 0; f < b.cfg.N; f++ {
		m := make([]int, b.cfg.D)
		for t := 0; t < b.cfg.D; t++ {
			m[t] = b.h1[t].Hash(uint64(f))
		}
		memb1[f] = m
	}
	x, err := minSum(memb1, v1, b.cfg.Layer1, maxIter)
	if err != nil {
		return nil, fmt.Errorf("layer 1: %w", err)
	}
	out := make([]float64, b.cfg.N)
	for f := range x {
		out[f] = float64(x[f])
	}
	return out, nil
}

// minSum is the Counter Braids message-passing decoder: unknowns
// (flows) each belong to len(memb[f]) counters; counter j's value is
// the sum of its members. Iterations alternate between upper-bound
// and lower-bound messages:
//
//	ν_{j→f} = v_j − Σ_{f'∈j, f'≠f} μ_{f'→j}
//	μ_{f→j} = clamp( min / max over j'≠j of ν_{j'→f} )
//
// starting from μ = 0 (a valid lower bound). Below the decoding
// threshold the bounds meet and the reconstruction is exact.
func minSum(memb [][]int, v []uint64, counters, maxIter int) ([]uint64, error) {
	n := len(memb)
	d := 0
	if n > 0 {
		d = len(memb[0])
	}
	// Messages flow→counter, stored flat per (flow, slot).
	mu := make([]int64, n*d)
	nextMu := make([]int64, n*d)
	// Counter aggregates: Σ incoming μ per counter.
	sum := make([]int64, counters)
	est := make([]uint64, n)

	vi := make([]int64, len(v))
	for j, val := range v {
		if val > math.MaxInt64/2 {
			return nil, fmt.Errorf("counterbraids: counter value %d too large", val)
		}
		vi[j] = int64(val)
	}

	converged := false
	for iter := 1; iter <= maxIter; iter++ {
		upper := iter%2 == 1 // odd iterations produce upper bounds
		for j := range sum {
			sum[j] = 0
		}
		for f := 0; f < n; f++ {
			for s, j := range memb[f] {
				sum[j] += mu[f*d+s]
			}
		}
		changed := false
		for f := 0; f < n; f++ {
			// ν_{j→f} for each membership.
			var nu [8]int64 // d ≤ 8 in any sane configuration
			for s, j := range memb[f] {
				nu[s] = vi[j] - (sum[j] - mu[f*d+s])
			}
			for s := range memb[f] {
				// Combine over the other memberships.
				var agg int64
				first := true
				for s2 := range memb[f] {
					if s2 == s {
						continue
					}
					if first {
						agg = nu[s2]
						first = false
					} else if upper {
						if nu[s2] < agg {
							agg = nu[s2]
						}
					} else {
						if nu[s2] > agg {
							agg = nu[s2]
						}
					}
				}
				if agg < 0 {
					agg = 0
				}
				if nextMu[f*d+s] = agg; agg != mu[f*d+s] {
					changed = true
				}
			}
			// Running estimate: min over all memberships of ν (an
			// upper bound on the flow).
			best := nu[0]
			for s := 1; s < len(memb[f]); s++ {
				if nu[s] < best {
					best = nu[s]
				}
			}
			if best < 0 {
				best = 0
			}
			est[f] = uint64(best)
		}
		mu, nextMu = nextMu, mu
		if !changed && iter > 2 {
			converged = true
			break
		}
	}
	if !converged {
		// Verify the fixed point anyway: if the estimates satisfy all
		// counter equations exactly, accept them.
		check := make([]int64, counters)
		for f := 0; f < n; f++ {
			for _, j := range memb[f] {
				check[j] += int64(est[f])
			}
		}
		for j := range check {
			if check[j] != vi[j] {
				return nil, ErrNoConverge
			}
		}
	}
	return est, nil
}
