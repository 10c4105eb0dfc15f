package repro

import (
	"fmt"
	"io"
	"time"

	"repro/internal/codec"
	"repro/internal/heavyhitter"
	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/window"
)

// Windowed is a sliding-window sketch: point queries cover only the
// last WithPanes panes of the stream, not all of it — the "recent
// frequencies" shape real monitoring traffic needs. Any linear
// algorithm from the registry works as the pane sketch; non-linear
// ones (cmcu, cmlcu) return ErrNotLinear, since expiring and summing
// panes is exactly a merge.
//
// Ingestion runs through a concurrent.Sharded open pane, so
// multi-goroutine writers are contention-free; closed panes are
// immutable; and reads are served from a cached merged replica of the
// live panes published through an atomic pointer — a query against a
// fresh window takes zero locks, the epoch/snapshot machinery of
// Sharded extended with a rotation generation.
//
// Rotation is either explicit (Advance) or clock-driven
// (WithPaneWidth, with WithClock injectable for tests): in the timed
// mode every update or query first folds in the panes the clock says
// have elapsed, so expired traffic disappears even from a write-idle
// window.
type Windowed struct {
	inner *window.Window[sketch.Sketch]
	entry *registry.Entry
	desc  codec.Desc
}

// NewWindowed builds a sliding-window sketch with the given
// writer-shard count; algo and opts are exactly New's, plus the window
// knobs WithPanes (window length, default DefaultPanes), WithPaneWidth
// (clock-driven rotation, default explicit-Advance), and WithClock.
func NewWindowed(shards int, algo string, opts ...Option) (*Windowed, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrInvalidOption, shards)
	}
	e, ok := registry.Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("%w: %q (valid: %v)", ErrUnknownAlgorithm, algo, Algorithms())
	}
	if !e.Linear {
		return nil, fmt.Errorf("%w: %s", ErrNotLinear, e.Name)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	// Probe the constructor once so a parameter combination the
	// algorithm rejects surfaces here as an error, not as a panic from
	// the first pane rotation.
	if _, err := registry.SafeNew(e.Name, cfg.shape()); err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	mk := func() sketch.Sketch { return e.MustNew(cfg.shape()) }
	inner, err := window.New(window.Config{
		Panes:  cfg.panes,
		Shards: shards,
		Width:  cfg.paneWidth,
		Now:    cfg.clock,
	}, mk, registry.Merge)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &Windowed{
		inner: inner,
		entry: e,
		desc:  codec.Desc{Algo: e.Name, N: cfg.dim, S: cfg.words, D: cfg.depth, Seed: cfg.seed},
	}, nil
}

// Checkpoint writes the window's full state to w as a wire-format v2
// checkpoint container: the descriptor, the rotation state (pane
// count, clock-independent pane width, pane sequences), every closed
// pane, and the open pane's sharded replica set with its epochs —
// everything RestoreWindowed needs to answer Query/QueryBatch/TopK
// bit-identically after a restart. Safe under concurrent writers
// (rotation is held off, shard capture is per-shard-consistent); in
// clock-driven mode any due rotation is folded in first. Absolute pane
// boundaries are not part of the format: on restore the open pane's
// clock starts fresh, only the width survives.
func (w *Windowed) Checkpoint(wr io.Writer) error {
	if err := codec.EncodeWindowed(wr, w.desc, w.inner); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// RestoreWindowed reconstructs a Windowed from a Checkpoint stream:
// configuration (algorithm, shape, seed, panes, pane width, shard
// count) and state (closed panes, open pane, rotation sequence) all
// come from the wire. The restored window ingests, rotates, and
// checkpoints like the original.
//
// Of the options only WithClock is consulted — a checkpointed window
// carries its own shape, and in clock-driven mode the open pane's
// width timer restarts at restore time against the given clock
// (time.Now by default).
func RestoreWindowed(r io.Reader, opts ...Option) (*Windowed, error) {
	var cfg newConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.clockSet && cfg.clock == nil {
		return nil, fmt.Errorf("%w: WithClock must be non-nil", ErrInvalidOption)
	}
	inner, desc, err := codec.DecodeWindowed(r, cfg.clock)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	e, ok := registry.Lookup(desc.Algo)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, desc.Algo)
	}
	desc.Algo = e.Name
	return &Windowed{inner: inner, entry: e, desc: desc}, nil
}

// Advance rotates k panes: the open pane freezes, panes older than the
// window expire, and a fresh open pane starts absorbing writes.
// Advancing by the full window (k ≥ Panes) empties it. k must be
// positive. In clock-driven mode Advance is still allowed — it rotates
// relative to whatever pane is open.
func (w *Windowed) Advance(k int) error {
	if err := w.inner.Advance(k); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// Update applies x[i] += delta to the open pane, on the shard owning
// the caller's slot (Sharded.Update semantics: same slot serializes,
// different slots proceed in parallel).
func (w *Windowed) Update(slot, i int, delta float64) error {
	if err := w.inner.Update(slot, i, delta); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j to the open
// pane under a single shard-lock acquisition — the high-throughput
// ingestion path. A length mismatch returns an error before any update
// is applied.
func (w *Windowed) UpdateBatch(slot int, idx []int, deltas []float64) error {
	if len(idx) != len(deltas) {
		return fmt.Errorf("%w: %d indexes, %d deltas", ErrBadBatch, len(idx), len(deltas))
	}
	if err := w.inner.UpdateBatch(slot, idx, deltas); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// Query returns an estimate of x[i] counting only the live panes —
// the sliding-window frequency. Stale merged views are refreshed
// first; queries against a fresh view take zero locks.
func (w *Windowed) Query(i int) (float64, error) {
	v, err := w.inner.Query(i)
	if err != nil {
		return 0, fmt.Errorf("repro: %w", err)
	}
	return v, nil
}

// QueryBatch writes a live-pane estimate of x[idx[j]] into out[j] for
// every j, through the replica's native batched query path. A length
// mismatch returns an error before anything is written.
func (w *Windowed) QueryBatch(idx []int, out []float64) error {
	if len(idx) != len(out) {
		return fmt.Errorf("%w: %d indexes, %d outputs", ErrBadBatch, len(idx), len(out))
	}
	if err := w.inner.QueryBatch(idx, out); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// TopK returns the k coordinates deviating most from the bias estimate
// within the live panes, sorted by decreasing deviation — windowed
// deviation heavy hitters. ErrNoBias unless the algorithm is
// bias-aware.
func (w *Windowed) TopK(k int) ([]Deviator, error) {
	v, err := w.inner.View()
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	b, ok := v.Sketch().(heavyhitter.BiasedSketch)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBias, w.entry.Name)
	}
	return heavyhitter.TopK(b, k), nil
}

// Algo returns the canonical algorithm name.
func (w *Windowed) Algo() string { return w.entry.Name }

// Dim returns the dimension of the summarized vector.
func (w *Windowed) Dim() int { return w.desc.N }

// Panes returns the configured window length in panes.
func (w *Windowed) Panes() int { return w.inner.Panes() }

// PaneWidth returns the pane duration (0 in explicit-Advance mode).
func (w *Windowed) PaneWidth() time.Duration { return w.inner.Width() }

// Live returns the number of panes currently holding data (open pane
// included): at most Panes, fewer when the stream is younger than the
// window or recent panes saw no writes.
func (w *Windowed) Live() int { return w.inner.Live() }

// Words returns the total live memory across the open pane's shards,
// the closed panes, and the cached closed-pane sum, in 64-bit words.
func (w *Windowed) Words() int { return w.inner.Words() }
