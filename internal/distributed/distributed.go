// Package distributed simulates the distributed computation model of
// §1 as continuous monitoring: t sites each ingest a local update
// stream into sharded replicas built with shared randomness (the
// coordinator distributes algorithm, shape, and seed up front, §5.5
// footnote 4) and synchronize with the coordinator through a fan-in
// aggregation tree (MonitorTree). Linearity (Φx = Φx¹ + … + Φxᵗ) lets
// every interior node sum its children's replicas and the root answer
// for the global vector. Sites, nodes, and coordinator share no
// memory: every hop carries encoded wire-format frames, exactly as it
// would over a network, and MonitorStats accounts communication both
// in words (§5.5: total communication is sites × sketch size) and in
// actual encoded bytes.
package distributed

import (
	"errors"
	"fmt"

	"repro/internal/registry"
)

// Typed errors for the simulation entry points, so callers can
// errors.Is against the failure class instead of matching message
// strings.
var (
	// ErrNoSites is returned when the site streams do not match the
	// configured site count.
	ErrNoSites = errors.New("distributed: no sites")
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
