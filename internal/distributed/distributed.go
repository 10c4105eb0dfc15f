// Package distributed simulates the distributed computation model of
// §1: t sites each hold a local frequency vector x^i; every site
// sketches its vector with shared randomness and ships the sketch to a
// coordinator, which sums them (linearity: Φx = Φx¹ + … + Φxᵗ) and
// recovers the global vector. Sites and coordinator share no memory:
// the only thing that crosses the boundary is the encoded wire-format
// payload, exactly as it would over a network. The simulation accounts
// communication both in words (matching §5.5's observation that total
// communication is sites × sketch size) and in actual encoded bytes.
package distributed

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// Typed errors for the simulation entry points, so callers can
// errors.Is against the failure class instead of matching message
// strings.
var (
	// ErrNoSites is returned when a run is given zero site vectors or
	// streams.
	ErrNoSites = errors.New("distributed: no sites")
	// ErrDimensionMismatch is returned when site vectors disagree in
	// dimension, or the sketch descriptor does not match them.
	ErrDimensionMismatch = errors.New("distributed: dimension mismatch")
	// ErrUnknownAlgorithm is returned for descriptor algorithm names
	// the registry does not resolve.
	ErrUnknownAlgorithm = errors.New("distributed: unknown algorithm")
	// ErrNotShippable is returned for algorithms that cannot play a
	// site's role: non-linear sketches cannot be summed by the
	// coordinator, and exact would ship the raw vector.
	ErrNotShippable = errors.New("distributed: algorithm cannot ship site sketches")
	// ErrBadConfig is returned by TreeConfig.Validate for unusable
	// knob values — non-positive sites, synchronization intervals,
	// fan-in, or shard counts, and churn events naming sites that do
	// not exist.
	ErrBadConfig = errors.New("distributed: invalid monitor configuration")
	// ErrStaleFrame is returned when a delta frame regresses or
	// repeats an acknowledged epoch on an aggregation-tree edge —
	// the insert-only-per-epoch protocol violation. Only full-state
	// frames (a site rejoining after a restart) may reset epochs.
	ErrStaleFrame = errors.New("distributed: delta frame regresses an acknowledged epoch")
	// ErrFrameMismatch is returned when a frame's descriptor or shard
	// count disagrees with the fabric configuration the tree was built
	// with — a foreign or corrupted hop payload.
	ErrFrameMismatch = errors.New("distributed: frame does not match the fabric configuration")
)

// Stats summarizes one distributed run.
type Stats struct {
	Sites             int
	WordsPerSite      int
	TotalCommWords    int // Sites × WordsPerSite
	CommBytes         int // encoded bytes actually shipped site→coordinator
	NaiveCommWords    int // Sites × n: the cost of shipping raw vectors
	CompressionFactor float64
}

// Run simulates the model. desc names the shared configuration every
// site constructs (the coordinator distributes algorithm, shape, and
// seed up front — the shared-randomness protocol of §5.5 footnote 4);
// locals are the per-site vectors. Each site sketches its local
// vector and encodes it through the streaming codec; the coordinator
// decodes each packet and merges. The algorithm must be linear (the
// precondition of the model) and serializable (exact ships the whole
// vector and is exactly what sketching is here to avoid).
func Run(desc codec.Desc, locals [][]float64) (sketch.Sketch, Stats, error) {
	if len(locals) == 0 {
		return nil, Stats{}, ErrNoSites
	}
	n := len(locals[0])
	for i, l := range locals {
		if len(l) != n {
			return nil, Stats{}, fmt.Errorf("%w: site %d has dimension %d, want %d", ErrDimensionMismatch, i, len(l), n)
		}
	}
	if desc.N != n {
		return nil, Stats{}, fmt.Errorf("%w: sketch dim %d != vector dim %d", ErrDimensionMismatch, desc.N, n)
	}
	e, ok := registry.Lookup(desc.Algo)
	if !ok {
		return nil, Stats{}, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, desc.Algo)
	}
	if err := shippable(e); err != nil {
		return nil, Stats{}, err
	}

	coordinator, err := registry.SafeNew(desc.Algo, desc.Shape())
	if err != nil {
		return nil, Stats{}, fmt.Errorf("distributed: %w", err)
	}
	st := Stats{Sites: len(locals), NaiveCommWords: len(locals) * n}
	for p, local := range locals {
		shipped, bytes, err := shipSite(desc, local)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("distributed: site %d: %w", p, err)
		}
		st.CommBytes += bytes
		if err := registry.Merge(coordinator, shipped); err != nil {
			return nil, Stats{}, fmt.Errorf("distributed: merge site %d: %w", p, err)
		}
	}

	st.WordsPerSite = coordinator.Words()
	st.TotalCommWords = st.Sites * st.WordsPerSite
	if st.TotalCommWords > 0 {
		st.CompressionFactor = float64(st.NaiveCommWords) / float64(st.TotalCommWords)
	}
	return coordinator, st, nil
}

// shippable gates the algorithms that can play a site's role, before
// any per-site work: the model needs linearity (site sketches must
// sum) and a wire representation smaller than the data (exact would
// ship the raw vector — exactly what sketching is here to avoid, and
// the codec refuses it as a standalone container anyway).
func shippable(e *registry.Entry) error {
	if !e.Linear {
		return fmt.Errorf("%w: %s is not linear; site sketches cannot be summed", ErrNotShippable, e.Name)
	}
	if e.Name == registry.Exact {
		return fmt.Errorf("%w: exact ships the raw vector; use a sketch", ErrNotShippable)
	}
	return nil
}

// shipSite builds one site's sketch of its local vector and round-
// trips it through the codec — the site→coordinator hop. The returned
// sketch was reconstructed purely from the encoded payload.
func shipSite(desc codec.Desc, local []float64) (sketch.Sketch, int, error) {
	site, err := registry.SafeNew(desc.Algo, desc.Shape())
	if err != nil {
		return nil, 0, err
	}
	if err := sketch.SketchVector(site, local); err != nil {
		return nil, 0, err
	}
	var pkt bytes.Buffer
	if err := codec.EncodeSketch(&pkt, desc, site); err != nil {
		return nil, 0, fmt.Errorf("encode: %w", err)
	}
	size := pkt.Len()
	shipped, _, err := codec.DecodeSketch(&pkt)
	if err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	return shipped, size, nil
}

// Split partitions a global vector into `sites` local vectors whose
// sum is the original, deterministically spreading each coordinate's
// mass. It is a convenience for experiments and examples.
func Split(global []float64, sites int) [][]float64 {
	if sites <= 0 {
		panic("distributed: sites must be positive")
	}
	parts := make([][]float64, sites)
	for p := range parts {
		parts[p] = make([]float64, len(global))
	}
	for i, v := range global {
		// Deterministic uneven split: site (i mod sites) gets the
		// remainder so mass distribution varies across sites.
		share := v / float64(sites)
		rem := i % sites
		var assigned float64
		for p := range parts {
			if p == rem {
				continue
			}
			parts[p][i] = share
			assigned += share
		}
		parts[rem][i] = v - assigned
	}
	return parts
}
