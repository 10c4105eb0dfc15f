// Package server implements the multi-tenant sketch-serving layer
// behind cmd/sketchd: a registry of named sketches per tenant, HTTP
// handlers for create/ingest/query/topk over the repro facade, a
// checkpoint scheduler persisting every sketch to a data directory
// (restored on boot), per-tenant in-flight limits that shed load with
// 429, and a drain path that writes one final checkpoint so a restart
// answers bit-identically.
//
// The package deliberately sits on the public facade — repro.New,
// NewSharded, NewWindowed, the wire-v2 batch frame, Checkpoint/Restore
// — so the server exercises exactly the API any other embedder gets.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Typed errors: server is an API boundary (the typederr lint set), so
// every exported entry point wraps one of these — handlers map them to
// HTTP statuses and callers can errors.Is.
var (
	// ErrNotFound: no such tenant or sketch name (HTTP 404).
	ErrNotFound = errors.New("server: no such sketch")
	// ErrExists: create collided with a live sketch (HTTP 409).
	ErrExists = errors.New("server: sketch already exists")
	// ErrBadSpec: the create spec is malformed — unknown kind, backend
	// on a sharded spec, and so on (HTTP 400).
	ErrBadSpec = errors.New("server: bad sketch spec")
	// ErrBadName: tenant or sketch name outside [A-Za-z0-9_-]{1,64}
	// (HTTP 400). Names are path and filename components; the charset
	// makes traversal impossible by construction.
	ErrBadName = errors.New("server: bad tenant or sketch name")
	// ErrOverloaded: the tenant's in-flight limit is saturated; the
	// request was shed (HTTP 429 with Retry-After).
	ErrOverloaded = errors.New("server: tenant over in-flight limit")
	// ErrDraining: the server is draining and no longer accepts work
	// (HTTP 503).
	ErrDraining = errors.New("server: draining")
)

// Config configures a Server.
type Config struct {
	// DataDir is the checkpoint directory: one subdirectory per
	// tenant, one <name>.ckpt (wire-v2 container) plus <name>.json
	// (spec sidecar) per sketch. Empty disables persistence.
	DataDir string
	// CheckpointEvery is the periodic checkpoint interval; zero
	// disables the scheduler (checkpoints still happen on Drain and on
	// POST /v1/checkpoint).
	CheckpointEvery time.Duration
	// MaxInflight caps concurrently-served requests per tenant;
	// requests beyond it are shed with 429. Zero or negative means
	// unlimited.
	MaxInflight int
}

// Server is the multi-tenant serving state: the sketch registry, the
// per-tenant limiter, and the checkpoint scheduler. Build one with
// New, mount Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg Config
	reg *registry
	lim *limiter

	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// ckptMu serializes checkpoint passes: the scheduler goroutine,
	// POST /v1/checkpoint, and Drain can all trigger one, and the
	// per-entry generation numbering (entry.gen/entry.sum) must advance
	// atomically with the files it describes.
	ckptMu sync.Mutex
	// ckptErr holds the last scheduled checkpoint pass's failure (nil
	// when that pass succeeded); GET /healthz answers 503 "degraded"
	// while it is set.
	ckptErr atomic.Value // errBox
}

// New builds a Server from cfg, restoring every checkpointed sketch
// from cfg.DataDir (missing directory is a fresh start, not an error)
// and starting the periodic checkpoint scheduler when both DataDir and
// CheckpointEvery are set.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:  cfg,
		reg:  newRegistry(),
		lim:  &limiter{max: cfg.MaxInflight, inflight: make(map[string]int)},
		stop: make(chan struct{}),
	}
	if cfg.DataDir != "" {
		if err := loadAll(cfg.DataDir, s.reg); err != nil {
			return nil, fmt.Errorf("server: restore from %s: %w", cfg.DataDir, err)
		}
	}
	if cfg.DataDir != "" && cfg.CheckpointEvery > 0 {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// checkpointLoop writes periodic checkpoints until Drain stops it. A
// failing pass is recorded, not fatal: GET /healthz reports it until a
// later pass succeeds, and the data directory keeps the last good
// checkpoint (writes are temp-file + rename, so a failure never
// corrupts one).
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.ckptErr.Store(errBox{s.CheckpointAll()})
		}
	}
}

// errBox lets a nil error round-trip through atomic.Value (which
// rejects bare nil and inconsistently-typed values).
type errBox struct{ err error }

// CheckpointAll writes every registered sketch to the data directory
// — durable and atomic per sketch (fsynced temp file + rename into a
// fresh generation, then the sidecar), so a crash mid-pass leaves each
// sketch with either its old or its new checkpoint pair, never a torn
// or mismatched one. Passes are serialized: concurrent callers queue
// rather than interleave generation numbering. No data directory
// configured is a no-op.
func (s *Server) CheckpointAll() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	for _, e := range s.reg.all() {
		if err := writeEntry(s.cfg.DataDir, e); err != nil {
			return fmt.Errorf("server: checkpoint %s/%s: %w", e.tenant, e.name, err)
		}
	}
	return nil
}

// Drain moves the server to draining (every subsequent request is
// refused with 503), stops the checkpoint scheduler, and writes one
// final checkpoint of every sketch. Call it after http.Server.Shutdown
// has returned, so in-flight requests have finished and the final
// checkpoint holds every acknowledged update — the restart then
// answers bit-identically. Drain is idempotent; later calls just
// re-checkpoint.
func (s *Server) Drain() error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	if err := s.CheckpointAll(); err != nil {
		return fmt.Errorf("server: final checkpoint: %w", err)
	}
	return nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// validName reports whether s is a legal tenant or sketch name:
// 1–64 characters from [A-Za-z0-9_-].
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z',
			'0' <= c && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}
