package repro

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// Defaults applied by New when the corresponding option is omitted —
// the shape the paper's evaluation uses throughout §5.1.
const (
	DefaultWords = 4096
	DefaultDepth = 9
	DefaultSeed  = 1
)

// DefaultPanes is the window length NewWindowed uses when WithPanes is
// omitted.
const DefaultPanes = 8

// MaxPanes bounds WithPanes: a window holds at most 2^16 panes (each
// pane is a full sketch replica — beyond this the "ring of sketches"
// design is the wrong tool and the value is almost certainly a unit
// mistake).
const MaxPanes = 1 << 16

// ErrInvalidOption is the typed error every constructor wraps when a
// functional option carries an unusable value — zero or negative where
// a positive count is required, a value beyond the wire-format bounds,
// a nil clock. Configuration is never silently clamped: check with
// errors.Is(err, repro.ErrInvalidOption).
var ErrInvalidOption = errors.New("repro: invalid option")

// Option configures New, NewSharded, and NewWindowed. Options follow
// the functional-options idiom so the constructor signatures stay
// stable as knobs are added.
type Option func(*newConfig)

type newConfig struct {
	dim     int
	words   int
	depth   int
	seed    int64
	backend Backend

	// Sliding-window knobs, consumed by NewWindowed only (New and
	// NewSharded validate but otherwise ignore them).
	panes     int
	paneWidth time.Duration
	clock     func() time.Time
	clockSet  bool
}

// WithDim sets n, the dimension of the summarized frequency vector.
// Required.
func WithDim(n int) Option { return func(c *newConfig) { c.dim = n } }

// WithWords sets s, the per-row word budget (the paper's c_s·k: the
// bias-aware sketches split it into buckets plus bias-estimator
// samples, the baselines use it as buckets per row). Total sketch size
// is (depth+1)·words for every algorithm. Default 4096.
func WithWords(s int) Option { return func(c *newConfig) { c.words = s } }

// WithDepth sets d, the number of independent repetitions (Θ(log n)
// in the theorems; 9 in §5.1). Default 9.
func WithDepth(d int) Option { return func(c *newConfig) { c.depth = d } }

// WithSeed sets the seed deriving every hash function and sampled
// position. Two sketches merge — and a serialized sketch reloads —
// only under the same seed: this is the paper's shared-randomness
// protocol (§5.5 footnote 4). Default 1.
func WithSeed(seed int64) Option { return func(c *newConfig) { c.seed = seed } }

// WithBackend selects the counter-plane storage backend New builds the
// sketch on. BackendDense (the default) is the flat float64 table every
// prior release used — bit-identical behavior, allocation-free hot
// paths. BackendCompressed stores the counters in a Counter Braids
// layered structure at a fraction of the memory, with the CB
// constraints: insert-only (negative or fractional updates return
// ErrInsertOnly) and decode-at-query (a query past the braid's load
// threshold returns ErrDecodeBudget). Not every algorithm supports
// every backend — see Backends; unsupported pairs return
// ErrBackendUnsupported from New.
//
// BackendMmap cannot be requested here: a memory-mapped sketch is
// opened from a checkpoint file via OpenMmap, not built empty.
func WithBackend(b Backend) Option { return func(c *newConfig) { c.backend = b } }

// WithPanes sets the sliding-window length in panes for NewWindowed:
// the open pane absorbing writes plus panes-1 closed ones, so queries
// cover the last panes pane-widths of traffic. Must be in
// [1, MaxPanes]. Default DefaultPanes. Ignored by New and NewSharded.
func WithPanes(panes int) Option { return func(c *newConfig) { c.panes = panes } }

// WithPaneWidth sets the pane duration for clock-driven rotation in
// NewWindowed: every update or query first folds in the panes the
// clock says have elapsed. Zero (the default) means panes rotate only
// through explicit Advance calls. Must be non-negative. Ignored by New
// and NewSharded.
func WithPaneWidth(d time.Duration) Option {
	return func(c *newConfig) { c.paneWidth = d }
}

// WithClock injects the clock WithPaneWidth-driven rotation consults,
// so tests control pane boundaries deterministically. Must be non-nil.
// Default time.Now. Ignored by New and NewSharded.
func WithClock(now func() time.Time) Option {
	return func(c *newConfig) { c.clock = now; c.clockSet = true }
}

func buildConfig(opts []Option) (newConfig, error) {
	cfg := newConfig{
		words: DefaultWords, depth: DefaultDepth, seed: DefaultSeed,
		panes: DefaultPanes,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.dim <= 0 {
		return cfg, fmt.Errorf("%w: WithDim is required and must be positive, got %d", ErrInvalidOption, cfg.dim)
	}
	if cfg.words <= 0 {
		return cfg, fmt.Errorf("%w: WithWords must be positive, got %d", ErrInvalidOption, cfg.words)
	}
	if cfg.depth <= 0 {
		return cfg, fmt.Errorf("%w: WithDepth must be positive, got %d", ErrInvalidOption, cfg.depth)
	}
	if cfg.seed < 0 {
		return cfg, fmt.Errorf("%w: WithSeed must be non-negative (the wire format carries it unsigned), got %d", ErrInvalidOption, cfg.seed)
	}
	if cfg.panes <= 0 {
		return cfg, fmt.Errorf("%w: WithPanes must be positive, got %d", ErrInvalidOption, cfg.panes)
	}
	if cfg.panes > MaxPanes {
		return cfg, fmt.Errorf("%w: WithPanes must be at most %d (each pane is a full sketch replica), got %d", ErrInvalidOption, MaxPanes, cfg.panes)
	}
	if cfg.paneWidth < 0 {
		return cfg, fmt.Errorf("%w: WithPaneWidth must be non-negative, got %v", ErrInvalidOption, cfg.paneWidth)
	}
	if cfg.clockSet && cfg.clock == nil {
		return cfg, fmt.Errorf("%w: WithClock must be non-nil", ErrInvalidOption)
	}
	switch cfg.backend {
	case sketch.BackendDense, sketch.BackendCompressed:
	case sketch.BackendMmap:
		return cfg, fmt.Errorf("%w: WithBackend(BackendMmap) — mmap sketches are opened from a checkpoint file via OpenMmap, not built empty", ErrInvalidOption)
	default:
		return cfg, fmt.Errorf("%w: unknown backend %v", ErrInvalidOption, cfg.backend)
	}
	// Enforce the wire format's descriptor bounds at construction time,
	// so every sketch New builds can be marshaled AND unmarshaled — a
	// site must never produce packets the coordinator rejects.
	desc := codec.Desc{N: cfg.dim, S: cfg.words, D: cfg.depth, Seed: cfg.seed}
	if err := desc.Validate(); err != nil {
		return cfg, fmt.Errorf("%w: configuration outside wire-format bounds (dim ≤ 2^26, 4 ≤ words ≤ 2^22, depth ≤ 64, words·depth ≤ 2^24): %w", ErrInvalidOption, err)
	}
	return cfg, nil
}

// shape is the registry construction shape the options describe.
func (c newConfig) shape() registry.Shape {
	return registry.Shape{N: c.dim, S: c.words, D: c.depth, Seed: c.seed}
}
