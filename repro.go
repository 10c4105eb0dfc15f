package repro

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/heavyhitter"
	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/vecmath"
)

// Sketch is a summary of a frequency vector x ∈ R^n supporting point
// updates and point queries — the protocol every algorithm in the
// paper shares (S(x) builds the summary, R recovers from it, §1).
//
// A Sketch produced by New may additionally satisfy Linear,
// Serializable, or Biased; assert for the capability or use the
// package-level helpers (Merge, Marshal, Bias), which return typed
// errors when the capability is absent.
type Sketch interface {
	// Update applies x[i] += delta. i must be in [0, Dim()).
	Update(i int, delta float64)
	// Query returns an estimate of x[i].
	Query(i int) float64
	// Dim returns n, the dimension of the summarized vector.
	Dim() int
	// Words returns the sketch size in 64-bit words.
	Words() int
	// Algo returns the canonical algorithm name, e.g. "l2sr".
	Algo() string
}

// BatchUpdater is a sketch with a native batched ingestion path:
// UpdateBatch applies x[idx[j]] += deltas[j] for every j and leaves
// exactly the state of the equivalent element-wise Update loop, at a
// fraction of the cost (row-major traversal keeps each counter row
// cache-hot and loads each row's hash coefficients once per batch
// instead of once per element). Every sketch New constructs implements
// it; the package-level UpdateBatch helper falls back to an update
// loop for foreign Sketch implementations without the capability.
type BatchUpdater interface {
	Sketch
	// UpdateBatch applies x[idx[j]] += deltas[j] for every j. The two
	// slices must have equal length and every index must be in
	// [0, Dim()); the whole batch is validated before any counter
	// moves, so a panic cannot leave the sketch partially updated.
	UpdateBatch(idx []int, deltas []float64)
}

// BatchQuerier is the read-side twin of BatchUpdater: a sketch with a
// native batched query path. QueryBatch writes an estimate of
// x[idx[j]] into out[j] for every j, bit-identical to the equivalent
// element-wise Query loop, at a fraction of the cost — the same
// row-major traversal as batched ingestion loads each row's hash (and
// sign) coefficients once per batch and keeps the counter rows
// cache-hot while every element's buckets are gathered; the
// per-element median/min/bias-correction step then runs over the
// gathered values. Every sketch New constructs implements it; the
// package-level QueryBatch helper falls back to a Query loop for
// foreign Sketch implementations without the capability.
type BatchQuerier interface {
	Sketch
	// QueryBatch writes an estimate of x[idx[j]] into out[j] for every
	// j. The two slices must have equal length and every index must be
	// in [0, Dim()); the whole batch is validated before out is
	// written.
	QueryBatch(idx []int, out []float64)
}

// Linear is a sketch with the linearity property Φ(x+y) = Φx + Φy,
// hence mergeable: sites sketch their local vectors and a coordinator
// sums the sketches (the distributed model of §1). The conservative-
// update baselines (cmcu, cmlcu) are deliberately *not* Linear — that
// is the drawback §2 points out for the distributed setting.
type Linear interface {
	Sketch
	// Merge adds other's state into the receiver. Both sketches must
	// come from the same New call shape: same algorithm, dimension,
	// words, depth, and seed. Mismatches return ErrIncompatible.
	Merge(other Sketch) error
}

// Serializable is a Linear sketch that also round-trips through the
// wire format — the full site→coordinator contract: ship bytes, load,
// merge. (Non-linear sketches can still be saved and restored locally
// with Marshal/Unmarshal; Serializable marks the ones that are safe to
// exchange between sites.)
type Serializable interface {
	Linear
	// MarshalBinary serializes the sketch in the self-describing wire
	// format; repro.Unmarshal reconstructs it.
	MarshalBinary() ([]byte, error)
}

// Biased is a bias-aware sketch (l1sr, l2sr and their mean variants):
// it additionally estimates the bias β̂ = argmin_β Err_p^k(x − β), the
// quantity the paper's ℓ1-S/R and ℓ2-S/R subtract before sketching.
type Biased interface {
	Serializable
	// Bias returns the current estimate of the data's bias β.
	Bias() float64
}

// Typed capability and lookup errors.
var (
	// ErrUnknownAlgorithm is returned by New for names the registry
	// does not resolve; Algorithms lists the valid ones.
	ErrUnknownAlgorithm = errors.New("repro: unknown algorithm")
	// ErrNotLinear is returned by Merge when either sketch is a
	// non-linear algorithm (cmcu, cmlcu): conservative update loses
	// the property Φ(x+y) = Φx + Φy, so there is no meaningful sum.
	ErrNotLinear = errors.New("repro: sketch is not linear")
	// ErrIncompatible is returned by Merge when two linear sketches do
	// not share algorithm, shape, and seed.
	ErrIncompatible = sketch.ErrIncompatible
	// ErrNoBias is returned by Bias, Scan, and TopK for sketches that
	// do not estimate a bias.
	ErrNoBias = errors.New("repro: sketch has no bias estimate")
	// ErrNotSerializable is returned by Marshal for sketches whose
	// state the wire format does not carry (exact).
	ErrNotSerializable = errors.New("repro: sketch is not serializable")
	// ErrInsertOnly is the panic value (wrapped) when a counterbraids
	// sketch receives a negative or fractional delta: a braid holds
	// non-negative integer counts only.
	ErrInsertOnly = sketch.ErrInsertOnly
	// ErrDecodeBudget is the panic value (wrapped) when a counterbraids
	// query cannot decode the braid — it was loaded past its decodable
	// threshold. The sketch is still intact and serializable; only
	// queries are unavailable.
	ErrDecodeBudget = sketch.ErrDecodeBudget
	// ErrHashUnsupported is returned by Unmarshal, Decode, and the
	// other restore paths for a payload whose descriptor names
	// a hash family other than the pairwise one every sketch here
	// uses. Older builds wrote such payloads for sketches built on
	// simple tabulation hashing; they are refused rather than restored
	// under the wrong hash functions.
	ErrHashUnsupported = codec.ErrHashUnsupported
	// ErrTrailingData is returned by Unmarshal when a buffer holds
	// bytes beyond the one payload it should contain. Streams carrying
	// multiple frames decode through Decode instead.
	ErrTrailingData = errors.New("repro: trailing data after payload")
	// ErrBadBatch is returned by the batched entry points when the
	// index slice and its paired delta/output slice differ in length;
	// nothing is applied or written.
	ErrBadBatch = errors.New("repro: batch slice lengths differ")
	// ErrForeignSketch is returned by Encode, Checkpoint, TopK, Scan
	// and the other entry points that need a sketch's internals when
	// handed a Sketch implementation that was not built by this
	// package's constructors.
	ErrForeignSketch = errors.New("repro: sketch was not built by repro.New")
	// ErrNilLevel is returned by NewRange when the level factory
	// returns nil for some dyadic level.
	ErrNilLevel = errors.New("repro: level factory returned nil")
)

// handle is the base facade wrapper: the constructed sketch plus the
// descriptor needed to rebuild it on the other end of a wire.
type handle struct {
	inner sketch.Sketch
	entry *registry.Entry
	desc  codec.Desc
}

func (h *handle) Update(i int, delta float64)             { h.inner.Update(i, delta) }
func (h *handle) Query(i int) float64                     { return h.inner.Query(i) }
func (h *handle) UpdateBatch(idx []int, deltas []float64) { h.inner.UpdateBatch(idx, deltas) }
func (h *handle) QueryBatch(idx []int, out []float64)     { h.inner.QueryBatch(idx, out) }
func (h *handle) Dim() int                                { return h.inner.Dim() }
func (h *handle) Words() int                              { return h.inner.Words() }
func (h *handle) Algo() string                            { return h.entry.Name }
func (h *handle) String() string {
	return fmt.Sprintf("%s(n=%d s=%d d=%d)", h.entry.Name, h.desc.N, h.desc.S, h.desc.D)
}

// base lets the package helpers unwrap any handle flavor.
func (h *handle) base() *handle { return h }

type baser interface{ base() *handle }

// linearHandle adds Merge (exact — linear but not serializable).
type linearHandle struct{ handle }

func (h *linearHandle) Merge(other Sketch) error { return mergeHandles(&h.handle, other) }

// serialHandle adds the wire format (the linear baselines).
type serialHandle struct{ linearHandle }

func (h *serialHandle) MarshalBinary() ([]byte, error) { return Marshal(h) }

// biasedHandle adds the bias estimate (l1sr, l2sr, l1mean, l2mean).
type biasedHandle struct{ serialHandle }

func (h *biasedHandle) Bias() float64 {
	return h.inner.(interface{ Bias() float64 }).Bias()
}

// wrap picks the handle flavor matching the entry's capabilities, so
// type assertions against Linear/Serializable/Biased are meaningful.
func wrap(e *registry.Entry, inner sketch.Sketch, desc codec.Desc) Sketch {
	h := handle{inner: inner, entry: e, desc: desc}
	switch {
	case e.Bias:
		return &biasedHandle{serialHandle{linearHandle{h}}}
	case e.Linear && serializableInner(inner):
		return &serialHandle{linearHandle{h}}
	case e.Linear:
		return &linearHandle{h}
	default:
		return &h
	}
}

func serializableInner(inner sketch.Sketch) bool {
	_, err := registry.State(inner)
	return err == nil
}

// New constructs the named algorithm with the functional options.
// WithDim is required; WithWords, WithDepth, and WithSeed default to
// 4096, 9, and 1 (the paper's §5.1 shape). Every algorithm follows the
// equal-words sizing protocol: at a given (words, depth) setting each
// consumes (depth+1)·words 64-bit words, so size-versus-accuracy
// comparisons across algorithms are apples to apples.
//
// Algorithm names (see Algorithms): "l1sr", "l2sr", "l1mean",
// "l2mean", "countmin", "countmedian", "countsketch", "cmcu", "cmlcu",
// "dengrafiei", "exact". The paper's legend names ("l2-S/R", "CM-CU",
// …) are accepted as aliases.
func New(algo string, opts ...Option) (Sketch, error) {
	e, ok := registry.Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("%w: %q (valid: %v)", ErrUnknownAlgorithm, algo, Algorithms())
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	inner, err := registry.SafeNew(e.Name, cfg.shape())
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	desc := codec.Desc{Algo: e.Name, N: cfg.dim, S: cfg.words, D: cfg.depth, Seed: cfg.seed}
	return wrap(e, inner, desc), nil
}

// MustNew is New that panics on error, for tooling and examples where
// the configuration is static.
func MustNew(algo string, opts ...Option) Sketch {
	s, err := New(algo, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Exact returns the ground-truth "sketch": a dense vector of n exact
// counters. It is Linear (merging adds vectors) and useful as the
// reference in tests and demos; it is not Serializable — there is
// nothing sketched to ship.
func Exact(n int) Sketch {
	return MustNew(registry.Exact, WithDim(n))
}

// Algorithms returns the canonical names of every algorithm New can
// construct, sorted.
func Algorithms() []string { return registry.Names() }

// IsLinear reports whether the named algorithm produces mergeable
// sketches, without constructing one.
func IsLinear(algo string) bool {
	e, ok := registry.Lookup(algo)
	return ok && e.Linear
}

// Recover reconstructs the full estimate vector x̂ by querying every
// coordinate — the recovery phase R(Φx) of §1. A sketch New built is
// queried in batches; QueryBatch is bit-identical to the Query loop,
// which a Sketch built outside this package gets.
func Recover(s Sketch) []float64 {
	if h, ok := s.(baser); ok {
		return sketch.Recover(h.base().inner)
	}
	out := make([]float64, s.Dim())
	for i := range out {
		out[i] = s.Query(i)
	}
	return out
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j, using s's
// native batched path when it has one (every sketch New constructs
// does) and an element-wise update loop otherwise. A length mismatch
// returns an error before any update is applied. This is the
// high-throughput ingestion entry point: amortize per-element costs by
// feeding elements in batches of a few hundred to a few thousand.
func UpdateBatch(s Sketch, idx []int, deltas []float64) error {
	if len(idx) != len(deltas) {
		return fmt.Errorf("%w: %d indexes, %d deltas", ErrBadBatch, len(idx), len(deltas))
	}
	if b, ok := s.(BatchUpdater); ok {
		b.UpdateBatch(idx, deltas)
		return nil
	}
	for j, i := range idx {
		s.Update(i, deltas[j])
	}
	return nil
}

// QueryBatch writes an estimate of x[idx[j]] into out[j] for every j,
// using s's native batched query path when it has one (every sketch
// New constructs does) and an element-wise Query loop otherwise — the
// two are bit-identical. A length mismatch returns an error before
// anything is written. This is the high-throughput serving entry
// point: amortize per-query hash-coefficient loads by asking for
// estimates in batches of a few hundred to a few thousand.
func QueryBatch(s Sketch, idx []int, out []float64) error {
	if len(idx) != len(out) {
		return fmt.Errorf("%w: %d indexes, %d outputs", ErrBadBatch, len(idx), len(out))
	}
	if b, ok := s.(BatchQuerier); ok {
		b.QueryBatch(idx, out)
		return nil
	}
	for j, i := range idx {
		out[j] = s.Query(i)
	}
	return nil
}

// SketchVector feeds a dense frequency vector into s, one update per
// non-zero coordinate. It delegates to the internal implementation, so
// the facade and internal paths cannot drift: both return an error on
// length mismatch before any update is applied.
func SketchVector(s Sketch, x []float64) error {
	return sketch.SketchVector(s, x)
}

// Bias returns the sketch's bias estimate β̂, or ErrNoBias for
// algorithms that do not track one.
func Bias(s Sketch) (float64, error) {
	b, ok := s.(interface{ Bias() float64 })
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoBias, s.Algo())
	}
	return b.Bias(), nil
}

// Deviator is one reported outlier: a coordinate whose estimate sits
// far from the bias. On biased data this — not "largest coordinate" —
// is the meaningful heavy-hitter notion (§1).
type Deviator = heavyhitter.Deviator

// TopK returns the k coordinates deviating most from the bias
// estimate, sorted by decreasing deviation (ties by index). It reads
// only the keys of the buckets heavy enough to hold a top-k key,
// listed by inverting the row hashes (a range scan near the noise
// floor), fully queries only those a median bound cannot rule out, and
// answers exactly as the top k of Recover would. ErrForeignSketch
// unless New built s, and ErrNoBias unless s is bias-aware.
func TopK(s Sketch, k int) ([]Deviator, error) {
	b, err := deviationSketch(s)
	if err != nil {
		return nil, err
	}
	return heavyhitter.TopK(b, k), nil
}

// Scan returns every coordinate whose estimated deviation from the
// bias exceeds threshold, sorted by decreasing deviation (ties by
// index). Like TopK, it reads only the keys of the heavy buckets (a
// range scan near the noise floor) and fully queries only those a
// median bound cannot rule out. ErrForeignSketch unless New built s,
// and ErrNoBias unless s is bias-aware.
func Scan(s Sketch, threshold float64) ([]Deviator, error) {
	b, err := deviationSketch(s)
	if err != nil {
		return nil, err
	}
	return heavyhitter.Scan(b, threshold), nil
}

// deviationSketch returns what TopK and Scan run on: the handle's
// inner sketch, whose bucket listing and range scan they read.
func deviationSketch(s Sketch) (heavyhitter.BiasedSketch, error) {
	h, ok := s.(baser)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrForeignSketch, s)
	}
	b, ok := h.base().inner.(heavyhitter.BiasedSketch)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBias, s.Algo())
	}
	return b, nil
}

// AvgAbsErr returns the mean absolute difference between a vector and
// its recovery — the y-axis of the paper's accuracy plots.
func AvgAbsErr(x, xhat []float64) float64 { return vecmath.AvgAbsErr(x, xhat) }

// MaxAbsErr returns the ℓ∞ recovery error, the quantity the paper's
// theorems bound.
func MaxAbsErr(x, xhat []float64) float64 { return vecmath.MaxAbsErr(x, xhat) }
