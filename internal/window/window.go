// Package window serves time-decayed frequency queries from any linear
// sketch: "how heavy was coordinate i recently", not since the
// beginning of the stream. It uses the classical pane decomposition — a
// ring of per-pane sketches where the open pane absorbs writes and the
// closed panes are immutable — so that forgetting is O(1) metadata
// (expired panes fall off the ring) and the sliding-window estimate is
// the linear sum of the live panes, computed through the same Merge
// path that powers the distributed model of §1.
//
// The open pane is a concurrent.Sharded, so multi-goroutine ingestion
// is contention-free exactly as it is for unbounded streams. The read
// side reuses its epochs: queries are served from a cached merged
// replica (the closed-pane sum, then every open-pane shard, merged into
// one fresh replica) published through an atomic pointer, rebuilt only
// when a pane rotates or the open pane's shard epochs advance — readers
// of a fresh view take zero locks.
//
// Rotation is either explicit (Advance) or clock-driven: with a pane
// width configured, every Update/Query first folds in any panes the
// injected clock says have elapsed, so expired traffic disappears even
// from a write-idle window.
package window

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
)

// Config shapes a Window.
type Config struct {
	// Panes is the window length in panes: the open pane plus Panes-1
	// closed ones. Must be at least 1 (1 = only the open pane).
	Panes int
	// Shards is the open pane's writer-shard count (concurrent.New).
	// Must be at least 1.
	Shards int
	// Width is the pane duration for clock-driven rotation; 0 means
	// rotation happens only through explicit Advance calls.
	Width time.Duration
	// Now is the clock Width-driven rotation consults; nil means
	// time.Now. Injected by tests to make rotation deterministic.
	Now func() time.Time
}

// Window is a sliding window over a stream of (index, delta) updates,
// answering point queries against the last Panes panes only.
type Window[S concurrent.Mergeable] struct {
	mk    func() S
	merge func(dst, src S) error
	panes int
	sh    int
	width time.Duration
	now   func() time.Time

	// rot guards the rotation state below. Writers take it shared so
	// the open pane cannot be frozen out from under an in-flight
	// update; Advance takes it exclusively. Queries against a fresh
	// published view never touch it.
	rot       sync.RWMutex
	cur       *concurrent.Sharded[S]
	curSeq    uint64          // pane index of the open pane
	closed    []frozenPane[S] // live closed panes, oldest first
	closedSum S               // cached sum of closed panes; meaningful iff hasClosed
	hasClosed bool
	paneStart time.Time // open pane's start (clock-driven mode)

	gen      atomic.Uint64 // bumped per rotation; views carry the gen they saw
	deadline atomic.Int64  // open pane's end, unix nanos (clock-driven mode)

	// view is the published read replica; refreshMu serializes rebuilds.
	view      atomic.Pointer[View[S]]
	refreshMu sync.Mutex
}

// frozenPane is one closed pane: an immutable sketch of the updates
// that landed while it was open, tagged with its pane index so expiry
// under multi-pane advances (which close empty panes the ring never
// materializes) is a sequence comparison, not ring arithmetic.
type frozenPane[S any] struct {
	sk  S
	seq uint64
}

// ErrBadConfig is returned by New for non-positive pane or shard
// counts and negative pane widths.
var ErrBadConfig = errors.New("window: invalid configuration")

// New builds a sliding window whose panes are sketches built by mk and
// summed by merge — the same (mk, merge) contract as concurrent.New,
// and mk must likewise build replicas with identical configuration and
// seeds so panes merge.
func New[S concurrent.Mergeable](cfg Config, mk func() S, merge func(dst, src S) error) (*Window[S], error) {
	if cfg.Panes <= 0 {
		return nil, fmt.Errorf("%w: pane count must be positive, got %d", ErrBadConfig, cfg.Panes)
	}
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrBadConfig, cfg.Shards)
	}
	if cfg.Width < 0 {
		return nil, fmt.Errorf("%w: pane width must be non-negative, got %v", ErrBadConfig, cfg.Width)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	w := &Window[S]{
		mk:    mk,
		merge: merge,
		panes: cfg.Panes,
		sh:    cfg.Shards,
		width: cfg.Width,
		now:   now,
		cur:   concurrent.New(cfg.Shards, mk, merge),
	}
	if cfg.Width > 0 {
		w.paneStart = now()
		w.deadline.Store(w.paneStart.Add(cfg.Width).UnixNano())
	}
	return w, nil
}

// Panes returns the configured window length in panes.
func (w *Window[S]) Panes() int { return w.panes }

// Width returns the pane duration (0 in explicit-Advance mode).
func (w *Window[S]) Width() time.Duration { return w.width }

// Live returns the number of panes currently holding data: the open
// pane plus the closed panes that have not expired. At most Panes;
// less when the stream is younger than the window or recent panes were
// write-idle. In clock-driven mode any due rotation is folded in
// first, exactly as for Update and Query: a write-idle window must not
// keep reporting expired panes as live. (A rotation-merge failure —
// possible only with a caller-supplied merge function — leaves the
// pre-rotation count; the next Update or Query surfaces the error.)
func (w *Window[S]) Live() int {
	_ = w.maybeAdvance()
	w.rot.RLock()
	defer w.rot.RUnlock()
	return len(w.closed) + 1
}

// Advance rotates k panes: the open pane freezes into the ring, k-1
// empty panes pass through it, panes older than the window expire, and
// a fresh open pane starts. Advancing by the full window (k ≥ Panes)
// empties it. k must be positive.
func (w *Window[S]) Advance(k int) error {
	if k <= 0 {
		return fmt.Errorf("window: advance count must be positive, got %d", k)
	}
	w.rot.Lock()
	defer w.rot.Unlock()
	return w.advanceLocked(k)
}

// advanceLocked is Advance under w.rot held exclusively: no writer
// holds the open pane, so freezing it is an uncontended merge. All
// fallible steps run against locals first and the rotation commits
// only once every merge succeeded — a failing merge (possible with a
// caller-supplied merge function) leaves the window exactly as it
// was: pane still open, nothing double-counted, views still valid.
func (w *Window[S]) advanceLocked(k int) error {
	newSeq := w.curSeq + uint64(k)

	// Expire threshold: a closed pane is live while its index is
	// within Panes-1 of the open pane's. closed is oldest-first, so
	// the panes to expire are a prefix.
	var minLive uint64
	if span := uint64(w.panes - 1); newSeq > span {
		minLive = newSeq - span
	}
	expire := 0
	for expire < len(w.closed) && w.closed[expire].seq < minLive {
		expire++
	}
	written := w.cur.Written()

	// Idle rotation: nothing to freeze, nothing expires — the window
	// contents are unchanged. Advance the pane index only, keeping the
	// pristine open pane, the cached sum, and the published view (a
	// clock-driven window polled while write-idle would otherwise
	// allocate a fresh shard set and rebuild its view every tick).
	if !written && expire == 0 {
		w.curSeq = newSeq
		return nil
	}

	// A written pane is frozen only if it survives its own rotation
	// (advancing by k ≥ Panes expires it immediately — skip the copy).
	freeze := written && w.curSeq >= minLive
	keep := make([]frozenPane[S], 0, len(w.closed)-expire+1)
	keep = append(keep, w.closed[expire:]...)
	if freeze {
		frozen, err := w.cur.Merged()
		if err != nil {
			return fmt.Errorf("window: freezing open pane: %w", err)
		}
		keep = append(keep, frozenPane[S]{sk: frozen, seq: w.curSeq})
	}

	// Rebuild the cached closed-pane sum — incrementally (old sum,
	// which is immutable, plus the newly frozen pane: two merges) when
	// nothing expired, from scratch otherwise. Paid per rotation so
	// every refresh between rotations merges one closed sum regardless
	// of Panes.
	var sum S
	hasClosed := len(keep) > 0
	switch {
	case !hasClosed:
	case expire == 0 && w.hasClosed && freeze:
		sum = w.mk()
		if err := w.merge(sum, w.closedSum); err != nil {
			return fmt.Errorf("window: summing closed panes: %w", err)
		}
		if err := w.merge(sum, keep[len(keep)-1].sk); err != nil {
			return fmt.Errorf("window: summing closed panes: %w", err)
		}
	default:
		sum = w.mk()
		for _, p := range keep {
			if err := w.merge(sum, p.sk); err != nil {
				return fmt.Errorf("window: summing closed panes: %w", err)
			}
		}
	}

	// Commit: nothing below can fail.
	w.closed = keep
	w.closedSum = sum
	w.hasClosed = hasClosed
	w.curSeq = newSeq
	if written {
		w.cur = concurrent.New(w.sh, w.mk, w.merge)
	}
	w.gen.Add(1) // views built before this rotation are now stale
	return nil
}

// maybeAdvance folds in any panes the clock says have elapsed. The
// fast path — pane not yet due — is one atomic load.
func (w *Window[S]) maybeAdvance() error {
	if w.width <= 0 {
		return nil
	}
	if w.now().UnixNano() < w.deadline.Load() {
		return nil
	}
	w.rot.Lock()
	defer w.rot.Unlock()
	elapsed := w.now().Sub(w.paneStart)
	if elapsed < w.width {
		return nil // another goroutine rotated while we waited for the lock
	}
	k := int(elapsed / w.width)
	if err := w.advanceLocked(k); err != nil {
		return err
	}
	w.paneStart = w.paneStart.Add(time.Duration(k) * w.width)
	w.deadline.Store(w.paneStart.Add(w.width).UnixNano())
	return nil
}

// Update applies x[i] += delta to the open pane, on the shard owning
// the caller's slot (concurrent.Sharded.Update semantics). In
// clock-driven mode any due rotation happens first, so the update
// lands in the pane its timestamp belongs to.
func (w *Window[S]) Update(slot, i int, delta float64) error {
	if err := w.maybeAdvance(); err != nil {
		return err
	}
	w.rot.RLock()
	defer w.rot.RUnlock()
	w.cur.Update(slot, i, delta)
	return nil
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j to the open
// pane under one shard-lock acquisition — the same high-throughput
// ingestion path as concurrent.Sharded.UpdateBatch.
func (w *Window[S]) UpdateBatch(slot int, idx []int, deltas []float64) error {
	if len(idx) != len(deltas) {
		return fmt.Errorf("window: batch index count %d != delta count %d", len(idx), len(deltas))
	}
	if err := w.maybeAdvance(); err != nil {
		return err
	}
	w.rot.RLock()
	defer w.rot.RUnlock()
	w.cur.UpdateBatch(slot, idx, deltas)
	return nil
}

// View is an immutable merged replica of the window's live panes as of
// the rotation generation and open-pane epochs that built it. Readers
// share it: any number of goroutines may query it concurrently with
// zero locks while writers keep ingesting and panes keep rotating —
// exactly the concurrent.Snapshot contract, extended with the pane
// generation so a rotation also marks it stale.
type View[S concurrent.Mergeable] struct {
	owner  *Window[S]
	sk     S
	gen    uint64
	cur    *concurrent.Sharded[S] // open pane folded into sk
	epochs []uint64               // cur's shard epochs folded into sk
}

// Sketch returns the merged live-pane replica. It is shared and
// immutable: callers must not update or merge into it.
func (v *View[S]) Sketch() S { return v.sk }

// Stale reports whether a rotation happened or the open pane absorbed
// writes since this view was published — atomics only, no locks.
func (v *View[S]) Stale() bool {
	return v.gen != v.owner.gen.Load() || v.cur.Moved(v.epochs)
}

// Query answers a point query against the view, lock-free, through the
// replica's batched path as a batch of one (per-call scratch, so
// concurrent readers never share state).
func (v *View[S]) Query(i int) float64 {
	var (
		idx = [1]int{i}
		out [1]float64
	)
	v.QueryBatch(idx[:], out[:])
	return out[0]
}

// batchQuerier matches sketches with a native batched query path — the
// sketch.BatchQuerier capability, restated structurally so this
// package keeps zero sketch dependencies.
type batchQuerier interface {
	QueryBatch(idx []int, out []float64)
}

// QueryBatch answers a batch of point queries against the view,
// lock-free, through the replica's native batched path when it has one
// (bit-identical to the Query loop either way).
func (v *View[S]) QueryBatch(idx []int, out []float64) {
	if len(idx) != len(out) {
		panic(fmt.Sprintf("window: batch index count %d != output count %d", len(idx), len(out)))
	}
	if b, ok := any(v.sk).(batchQuerier); ok {
		b.QueryBatch(idx, out)
		return
	}
	for j, i := range idx {
		out[j] = v.sk.Query(i)
	}
}

// View returns a merged replica of the live panes, reusing the
// published one when neither a rotation nor an open-pane write made it
// stale — the common serving path is an atomic load. In clock-driven
// mode any due rotation is folded in first, so a view never shows
// expired panes.
func (w *Window[S]) View() (*View[S], error) {
	if err := w.maybeAdvance(); err != nil {
		return nil, err
	}
	if v := w.view.Load(); v != nil && !v.Stale() {
		return v, nil
	}
	return w.refresh()
}

// rotationState reads the rotation-guarded fields under one read
// lock: the generation, the open pane, and the closed-pane sum.
func (w *Window[S]) rotationState() (gen uint64, cur *concurrent.Sharded[S], closedSum S, hasClosed bool) {
	w.rot.RLock()
	defer w.rot.RUnlock()
	return w.gen.Load(), w.cur, w.closedSum, w.hasClosed
}

// refresh rebuilds and publishes the merged view: one fresh replica,
// into which the closed-pane sum and then every open-pane shard are
// merged — one construction and P+1 merges, independent of Panes.
func (w *Window[S]) refresh() (*View[S], error) {
	w.refreshMu.Lock()
	defer w.refreshMu.Unlock()
	if v := w.view.Load(); v != nil && !v.Stale() {
		return v, nil // an earlier waiter already rebuilt it
	}
	// Capture a consistent rotation state; the open pane's shards are
	// merged outside the lock (MergeInto locks one shard at a time).
	gen, cur, closedSum, hasClosed := w.rotationState()

	merged := w.mk()
	if hasClosed {
		if err := w.merge(merged, closedSum); err != nil {
			return nil, fmt.Errorf("window: merging closed panes: %w", err)
		}
	}
	epochs, err := cur.MergeInto(merged)
	if err != nil {
		return nil, fmt.Errorf("window: merging open pane: %w", err)
	}
	v := &View[S]{owner: w, sk: merged, gen: gen, cur: cur, epochs: epochs}
	w.view.Store(v)
	return v, nil
}

// Query answers a point query over the live panes only, refreshing the
// merged view if a rotation or write made it stale.
func (w *Window[S]) Query(i int) (float64, error) {
	v, err := w.View()
	if err != nil {
		return 0, err
	}
	return v.Query(i), nil
}

// QueryBatch answers a batch of point queries over the live panes
// only, through the replica's native batched path.
func (w *Window[S]) QueryBatch(idx []int, out []float64) error {
	if len(idx) != len(out) {
		return fmt.Errorf("window: batch index count %d != output count %d", len(idx), len(out))
	}
	v, err := w.View()
	if err != nil {
		return err
	}
	v.QueryBatch(idx, out)
	return nil
}

// Words returns the total live memory in 64-bit words: the open pane's
// shards, every closed pane, and the cached closed-pane sum. The
// published view adds one more single-sketch replica. In clock-driven
// mode any due rotation is folded in first (see Live), so expired
// panes stop counting without waiting for the next Update or Query.
func (w *Window[S]) Words() int {
	_ = w.maybeAdvance()
	w.rot.RLock()
	defer w.rot.RUnlock()
	t := w.cur.Words()
	for _, p := range w.closed {
		t += p.sk.Words()
	}
	if w.hasClosed {
		t += w.closedSum.Words()
	}
	return t
}
