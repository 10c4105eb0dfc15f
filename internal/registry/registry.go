// Package registry is the single algorithm catalog behind every way a
// sketch gets constructed by name: the public repro.New facade, the
// bench harness's legend-name dispatch, and the codec's wire-format
// decoders all resolve through the one table here. Each entry carries
// the canonical public name, the paper's legend name, the accepted
// aliases, the capability flags (linear / bias-aware), and the
// constructor implementing the paper's equal-words sizing protocol
// (§5.1): the bias-aware sketches use depth d with s extra words for
// bias estimation, the baselines use depth d+1, so every algorithm
// consumes (d+1)·s words at the same (s, d) setting.
//
// The four bias-aware entries build one core.SR each: l1sr and l1mean
// on the ℓ1 scheme, l2sr and l2mean on the ℓ2 scheme. Every sketch of
// one (entry, shape) is built on one shared core.Basis.
package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"weak"

	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Canonical algorithm names — the strings the public API accepts and
// the wire format writes.
const (
	L1SR         = "l1sr"
	L2SR         = "l2sr"
	L1Mean       = "l1mean"
	L2Mean       = "l2mean"
	CountMin     = "countmin"
	CountMedian  = "countmedian"
	CountSketch  = "countsketch"
	CMCU         = "cmcu"
	CMLCU        = "cmlcu"
	DengRafiei   = "dengrafiei"
	CounterBraid = "counterbraids"
	Exact        = "exact"
)

// ErrNotLinear is returned when a merge is requested for an algorithm
// without the linearity property Φ(x+y) = Φx + Φy (cmcu, cmlcu):
// conservative update loses it, which is exactly the drawback §2 of
// the paper points out for the distributed setting.
var ErrNotLinear = errors.New("registry: algorithm is not linear")

// Shape is the construction-time shape of a sketch: the paper's (n, s,
// d) sizing parameters and the hash seed.
type Shape struct {
	N    int // dimension of the input vector
	S    int // row width (buckets per row)
	D    int // depth (independent rows)
	Seed int64
}

// Entry describes one constructible algorithm.
type Entry struct {
	Name    string   // canonical name, e.g. "l2sr"
	Legend  string   // the paper's legend name, e.g. "l2-S/R"
	Aliases []string // extra accepted lookups (case-insensitive)

	// Linear marks sketches with the property Φ(x+y) = Φx + Φy, the
	// precondition for Merge and for the distributed model of §1.
	Linear bool
	// Bias marks the bias-aware sketches exposing a Bias() estimate.
	Bias bool

	// New constructs the sketch for the given shape. Unusable
	// parameters return an error; a constructor may still panic on
	// programmer-error misuse, which SafeNew converts.
	New func(sh Shape) (sketch.Sketch, error)
}

// MustNew constructs and panics on error — for the replica factories
// (shards, window panes, range levels) whose shape was already
// validated by a successful probe construction.
func (e *Entry) MustNew(sh Shape) sketch.Sketch {
	sk, err := e.New(sh)
	if err != nil {
		panic(err)
	}
	return sk
}

// Stateful is the capture/restore surface a sketch must offer to be
// serializable (the state section of a wire-format payload).
type Stateful interface {
	MarshalState() []byte
	UnmarshalState([]byte) error
}

// marshaler is the simpler state surface of the table-based sketches.
type marshaler interface {
	Marshal() []byte
	Unmarshal([]byte) error
}

type marshalAdapter struct{ m marshaler }

func (a marshalAdapter) MarshalState() []byte          { return a.m.Marshal() }
func (a marshalAdapter) UnmarshalState(b []byte) error { return a.m.Unmarshal(b) }

var (
	entries []*Entry
	byName  = map[string]*Entry{}
)

// Register adds an entry to the catalog. The canonical name, legend,
// and every alias become valid lookups; collisions panic (the catalog
// is assembled in init, a collision is a programmer error).
func Register(e Entry) {
	cp := e
	entries = append(entries, &cp)
	for _, name := range append([]string{e.Name, e.Legend}, e.Aliases...) {
		key := strings.ToLower(name)
		if key == "" {
			continue
		}
		if prev, dup := byName[key]; dup && prev != &cp {
			panic(fmt.Sprintf("registry: name %q registered twice", key))
		}
		byName[key] = &cp
	}
}

// Lookup resolves an algorithm by canonical name, legend name, or
// alias, case-insensitively.
func Lookup(name string) (*Entry, bool) {
	e, ok := byName[strings.ToLower(name)]
	return e, ok
}

// Names returns the canonical names of every registered algorithm,
// sorted.
func Names() []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// SafeNew constructs the named algorithm, additionally converting
// constructor panics (parameter combinations an algorithm rejects at
// runtime) into errors — the entry point for descriptors read off the
// network.
func SafeNew(name string, sh Shape) (sk sketch.Sketch, err error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown algorithm %q", name)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("registry: constructing %s: %v", e.Name, r)
		}
	}()
	sk, err = e.New(sh)
	if err != nil {
		return nil, fmt.Errorf("registry: constructing %s: %w", e.Name, err)
	}
	return sk, nil
}

// State adapts sk to the capture/restore surface, or reports that the
// sketch holds state the wire format cannot carry.
func State(sk sketch.Sketch) (Stateful, error) {
	switch s := sk.(type) {
	case Stateful:
		return s, nil
	case marshaler:
		return marshalAdapter{s}, nil
	default:
		return nil, fmt.Errorf("registry: %T is not serializable", sk)
	}
}

// Merge adds src's state into dst. Both must come from the same entry
// with identical shape and seeds; non-linear sketches (or mismatched
// pairs) return sketch.ErrIncompatible from the concrete MergeFrom,
// and types with no merge surface at all return ErrNotLinear.
func Merge(dst, src sketch.Sketch) error {
	switch d := dst.(type) {
	case *core.SR:
		s, ok := src.(*core.SR)
		if !ok {
			return sketch.ErrIncompatible
		}
		return d.MergeFrom(s)
	case sketch.Linear:
		s, ok := src.(sketch.Linear)
		if !ok {
			return sketch.ErrIncompatible
		}
		return d.MergeFrom(s)
	case *stream.Exact:
		s, ok := src.(*stream.Exact)
		if !ok || s.Dim() != d.Dim() {
			return sketch.ErrIncompatible
		}
		for i, v := range s.Vector() {
			if v != 0 {
				d.Update(i, v)
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %T has no merge surface", ErrNotLinear, dst)
	}
}

// baseCfg is the baselines' shape under the equal-words protocol.
func baseCfg(sh Shape) sketch.Config {
	return sketch.Config{N: sh.N, Rows: sh.S, Depth: sh.D + 1}
}

func kOf(s int) int {
	if k := s / 4; k >= 1 {
		return k
	}
	return 1
}

// basisKey names one common-knowledge basis: the entry fixes the
// scheme and estimator, the shape the seed.
type basisKey struct {
	entry string
	sh    Shape
}

// bases maps each key to a weak pointer to its live basis. A basis
// lives exactly as long as some sketch built on it, and a cleanup then
// drops its entry, so seeds that come and go cannot grow the cache.
var bases = struct {
	mu sync.Mutex
	m  map[basisKey]weak.Pointer[core.Basis]
}{m: map[basisKey]weak.Pointer[core.Basis]{}}

// sharedBasis returns the live basis for (entry, sh), drawing one with
// build from sh's seed when none is alive. Concurrent first
// constructions wait for the one build.
func sharedBasis(entry string, sh Shape, cfg core.Config, build func(core.Config, *rand.Rand) *core.Basis) *core.Basis {
	key := basisKey{entry, sh}
	bases.mu.Lock()
	defer bases.mu.Unlock()
	if b := bases.m[key].Value(); b != nil {
		return b
	}
	b := build(cfg, rand.New(rand.NewSource(sh.Seed)))
	wp := weak.Make(b)
	bases.m[key] = wp
	runtime.AddCleanup(b, func(key basisKey) {
		bases.mu.Lock()
		defer bases.mu.Unlock()
		if bases.m[key] == wp { // a newer basis may hold the key by now
			delete(bases.m, key)
		}
	}, key)
	return b
}

func init() {
	Register(Entry{
		Name: L1SR, Legend: "l1-S/R", Aliases: []string{"l1-sr", "l1s/r"},
		Linear: true, Bias: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			cfg := core.Config{N: sh.N, K: kOf(sh.S), Cs: 4, Depth: sh.D, SampleCount: sh.S}
			return sharedBasis(L1SR, sh, cfg, core.NewL1Basis).New(), nil
		},
	})
	Register(Entry{
		Name: L2SR, Legend: "l2-S/R", Aliases: []string{"l2-sr", "l2s/r"},
		Linear: true, Bias: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			cfg := core.Config{N: sh.N, K: kOf(sh.S), Cs: 4, Depth: sh.D}
			return sharedBasis(L2SR, sh, cfg, core.NewL2Basis).New(), nil
		},
	})
	Register(Entry{
		Name: L1Mean, Legend: "l1-mean",
		Linear: true, Bias: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			cfg := core.Config{N: sh.N, K: kOf(sh.S), Cs: 4, Depth: sh.D, SampleCount: 1, Estimator: core.EstimatorMean}
			return sharedBasis(L1Mean, sh, cfg, core.NewL1Basis).New(), nil
		},
	})
	Register(Entry{
		Name: L2Mean, Legend: "l2-mean",
		Linear: true, Bias: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			cfg := core.Config{N: sh.N, K: kOf(sh.S), Cs: 4, Depth: sh.D, Estimator: core.EstimatorMean}
			return sharedBasis(L2Mean, sh, cfg, core.NewL2Basis).New(), nil
		},
	})
	Register(Entry{
		Name: CountMedian, Legend: "CM", Aliases: []string{"count-median"},
		Linear: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			return sketch.NewCountMedian(baseCfg(sh), rand.New(rand.NewSource(sh.Seed)))
		},
	})
	Register(Entry{
		Name: CountSketch, Legend: "CS", Aliases: []string{"count-sketch"},
		Linear: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			return sketch.NewCountSketch(baseCfg(sh), rand.New(rand.NewSource(sh.Seed)))
		},
	})
	Register(Entry{
		Name: CountMin, Legend: "Count-Min", Aliases: []string{"count-min"},
		Linear: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			return sketch.NewCountMin(baseCfg(sh), rand.New(rand.NewSource(sh.Seed)))
		},
	})
	Register(Entry{
		Name: CMCU, Legend: "CM-CU",
		New: func(sh Shape) (sketch.Sketch, error) {
			return sketch.NewCMCU(baseCfg(sh), rand.New(rand.NewSource(sh.Seed)))
		},
	})
	Register(Entry{
		Name: CMLCU, Legend: "CML-CU",
		New: func(sh Shape) (sketch.Sketch, error) {
			return sketch.NewCMLCU(baseCfg(sh), sketch.DefaultCMLBase, rand.New(rand.NewSource(sh.Seed)))
		},
	})
	Register(Entry{
		Name: DengRafiei, Legend: "Deng-Rafiei", Aliases: []string{"deng-rafiei"},
		Linear: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			return sketch.NewDengRafiei(baseCfg(sh), rand.New(rand.NewSource(sh.Seed)))
		},
	})
	// Counter Braids (the §2 related work): sized by the dimension n
	// alone — the braid's layers follow the CB design rule, not the
	// equal-words (s, d) protocol, so s and d are accepted and ignored.
	Register(Entry{
		Name: CounterBraid, Legend: "CB", Aliases: []string{"cb", "counter-braids"},
		Linear: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			return sketch.NewCounterBraids(sh.N, rand.New(rand.NewSource(sh.Seed)))
		},
	})
	// Exact is the ground-truth "sketch": a plain dense vector. It is
	// trivially linear but never shipped in the wire format (its state
	// is the full vector — there is nothing sketched to save).
	Register(Entry{
		Name: Exact, Legend: "Exact",
		Linear: true,
		New: func(sh Shape) (sketch.Sketch, error) {
			return stream.NewExact(sh.N), nil
		},
	})
}
