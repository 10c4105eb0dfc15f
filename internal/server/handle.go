package server

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro"
)

// Spec describes one sketch as a client creates it and as the
// checkpoint sidecar persists it. Kind selects the serving container:
//
//   - "plain": a single repro.New sketch behind a server-side RWMutex;
//     the only kind that takes a Backend ("dense" or "compressed").
//   - "sharded": repro.NewSharded — per-shard locks, snapshot serving.
//   - "windowed": repro.NewWindowed — pane ring over sharded open pane.
//
// Zero-valued optional fields defer to the facade defaults.
type Spec struct {
	Kind        string `json:"kind"`
	Algo        string `json:"algo"`
	Dim         int    `json:"dim"`
	Words       int    `json:"words,omitempty"`
	Depth       int    `json:"depth,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	Backend     string `json:"backend,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	Panes       int    `json:"panes,omitempty"`
	PaneWidthMS int64  `json:"pane_width_ms,omitempty"`
}

// handle is one served sketch: the kind-specific concurrency wrapper
// behind a uniform batched surface. Implementations must be safe for
// concurrent use — ingest, queries, and checkpoints overlap freely.
type handle interface {
	kind() string
	algo() string
	dim() int
	words() int
	updateBatch(slot int, idx []int, deltas []float64) error
	queryBatch(idx []int, out []float64) error
	topK(k int) ([]repro.Deviator, error)
	checkpoint(w io.Writer) error
}

// sketchOptions translates the spec's optional shape fields to facade
// options. WithDim always; the rest only when set, so facade defaults
// apply.
func sketchOptions(spec Spec) []repro.Option {
	opts := []repro.Option{repro.WithDim(spec.Dim)}
	if spec.Words > 0 {
		opts = append(opts, repro.WithWords(spec.Words))
	}
	if spec.Depth > 0 {
		opts = append(opts, repro.WithDepth(spec.Depth))
	}
	if spec.Seed != 0 {
		opts = append(opts, repro.WithSeed(spec.Seed))
	}
	return opts
}

// backendOf maps the spec's backend string to a facade Backend. Mmap
// is deliberately absent: mapped checkpoints are read-only serving
// replicas opened via OpenMmap, not something a live ingest endpoint
// can sit on.
func backendOf(name string) (repro.Backend, error) {
	switch name {
	case "", "dense":
		return repro.BackendDense, nil
	case "compressed":
		return repro.BackendCompressed, nil
	}
	return repro.BackendDense, fmt.Errorf("%w: unknown backend %q (valid: dense, compressed)", ErrBadSpec, name)
}

// buildHandle constructs the serving handle a spec describes. Facade
// errors (unknown algorithm, invalid shape, unsupported backend) pass
// through typed, so callers map them to 400.
func buildHandle(spec Spec) (handle, error) {
	switch spec.Kind {
	case "plain":
		be, err := backendOf(spec.Backend)
		if err != nil {
			return nil, err
		}
		opts := append(sketchOptions(spec), repro.WithBackend(be))
		sk, err := repro.New(spec.Algo, opts...)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		return &plainHandle{sk: sk, insertOnly: be == repro.BackendCompressed}, nil
	case "sharded":
		if spec.Backend != "" {
			return nil, fmt.Errorf("%w: sharded sketches are dense-only", ErrBadSpec)
		}
		sh, err := repro.NewSharded(shardsOrDefault(spec.Shards), spec.Algo, sketchOptions(spec)...)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		return &shardedHandle{s: sh}, nil
	case "windowed":
		if spec.Backend != "" {
			return nil, fmt.Errorf("%w: windowed sketches are dense-only", ErrBadSpec)
		}
		opts := sketchOptions(spec)
		if spec.Panes > 0 {
			opts = append(opts, repro.WithPanes(spec.Panes))
		}
		if spec.PaneWidthMS > 0 {
			opts = append(opts, repro.WithPaneWidth(time.Duration(spec.PaneWidthMS)*time.Millisecond))
		}
		wd, err := repro.NewWindowed(shardsOrDefault(spec.Shards), spec.Algo, opts...)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		return &windowedHandle{w: wd}, nil
	}
	return nil, fmt.Errorf("%w: unknown kind %q (valid: plain, sharded, windowed)", ErrBadSpec, spec.Kind)
}

func shardsOrDefault(n int) int {
	if n > 0 {
		return n
	}
	return 1
}

// shardedHandle serves a *repro.Sharded. Ingest goes to the slot's
// shard under its own lock; queries go through the published snapshot
// (refreshed only when some shard changed), so query bursts take zero
// shard locks.
type shardedHandle struct{ s *repro.Sharded }

func (h *shardedHandle) kind() string { return "sharded" }
func (h *shardedHandle) algo() string { return h.s.Algo() }
func (h *shardedHandle) dim() int     { return h.s.Dim() }
func (h *shardedHandle) words() int   { return h.s.Words() }

func (h *shardedHandle) updateBatch(slot int, idx []int, deltas []float64) error {
	return h.s.UpdateBatch(slot, idx, deltas)
}

func (h *shardedHandle) queryBatch(idx []int, out []float64) error {
	return h.s.QueryBatch(idx, out)
}

func (h *shardedHandle) topK(k int) ([]repro.Deviator, error) {
	sn, err := h.s.Refresh()
	if err != nil {
		return nil, err
	}
	return sn.TopK(k)
}

func (h *shardedHandle) checkpoint(w io.Writer) error { return h.s.Checkpoint(w) }

// windowedHandle serves a *repro.Windowed; the facade type is already
// concurrency-safe and folds due pane rotations into every operation.
type windowedHandle struct{ w *repro.Windowed }

func (h *windowedHandle) kind() string { return "windowed" }
func (h *windowedHandle) algo() string { return h.w.Algo() }
func (h *windowedHandle) dim() int     { return h.w.Dim() }
func (h *windowedHandle) words() int   { return h.w.Words() }

func (h *windowedHandle) updateBatch(slot int, idx []int, deltas []float64) error {
	return h.w.UpdateBatch(slot, idx, deltas)
}

func (h *windowedHandle) queryBatch(idx []int, out []float64) error {
	return h.w.QueryBatch(idx, out)
}

func (h *windowedHandle) topK(k int) ([]repro.Deviator, error) { return h.w.TopK(k) }

func (h *windowedHandle) checkpoint(w io.Writer) error { return h.w.Checkpoint(w) }

// plainHandle serves a single repro.Sketch behind an RWMutex — the
// fallback for algorithms without a Sharded wrapper (non-linear
// conservative-update sketches, compressed backends). Writers
// serialize; readers share.
type plainHandle struct {
	mu sync.RWMutex
	sk repro.Sketch
	// insertOnly marks a compressed counter plane: negative or
	// fractional deltas would panic inside the braid, so the batch is
	// pre-validated and rejected whole with a typed error instead.
	insertOnly bool
}

func (h *plainHandle) kind() string { return "plain" }
func (h *plainHandle) algo() string { return h.sk.Algo() }
func (h *plainHandle) dim() int     { return h.sk.Dim() }
func (h *plainHandle) words() int   { return h.sk.Words() }

func (h *plainHandle) updateBatch(_ int, idx []int, deltas []float64) error {
	if h.insertOnly {
		for j, d := range deltas {
			if d < 0 || d != math.Trunc(d) {
				return fmt.Errorf("%w: delta %v at batch element %d", repro.ErrInsertOnly, d, j)
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return repro.UpdateBatch(h.sk, idx, deltas)
}

func (h *plainHandle) queryBatch(idx []int, out []float64) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return repro.QueryBatch(h.sk, idx, out)
}

func (h *plainHandle) topK(k int) ([]repro.Deviator, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return repro.TopK(h.sk, k)
}

func (h *plainHandle) checkpoint(w io.Writer) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return repro.Encode(w, h.sk)
}
