package repro

import (
	"bytes"
	"fmt"

	"repro/internal/codec"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// Backend names a counter-plane storage backend — where a sketch's
// d×s counter table physically lives. Select one at construction with
// WithBackend, or open a checkpoint file in place with OpenMmap.
type Backend = sketch.BackendKind

// The three counter-plane backends.
const (
	// BackendDense is the default: a flat in-memory float64 table,
	// bit-identical to every prior release, allocation-free on the
	// update and query hot paths.
	BackendDense = sketch.BackendDense
	// BackendCompressed stores the counters in a Counter Braids layered
	// structure (Lu et al.): ~1.5 shallow bits-limited counters per
	// bucket plus a small deep layer, a fraction of dense memory.
	// Insert-only (ErrInsertOnly on negative or fractional deltas) and
	// decode-at-query (ErrDecodeBudget past the braid's load
	// threshold).
	BackendCompressed = sketch.BackendCompressed
	// BackendMmap serves counters read-only straight out of a
	// memory-mapped checkpoint file — O(1) time-to-first-query
	// restores. Obtained from OpenMmap, never from New.
	BackendMmap = sketch.BackendMmap
)

// Typed backend errors.
var (
	// ErrBackendUnsupported is returned by New (and the codec restore
	// paths) for an algorithm/backend pair that does not exist — e.g. a
	// compressed Count-Sketch, whose signed updates a Counter Braids
	// plane cannot hold. Backends lists the valid pairs.
	ErrBackendUnsupported = sketch.ErrBackendUnsupported
	// ErrInsertOnly is the panic value (wrapped) when a compressed
	// sketch receives a negative or fractional delta: a Counter Braids
	// plane holds non-negative integer counts only.
	ErrInsertOnly = sketch.ErrInsertOnly
	// ErrDecodeBudget is returned (wrapped, as a panic value) when a
	// compressed plane's message-passing decode fails to converge —
	// the braid was loaded past its decodable threshold. The sketch is
	// still intact and serializable; only queries are unavailable.
	ErrDecodeBudget = sketch.ErrPlaneDecode
	// ErrReadOnly is the panic value (wrapped) when an mmap-backed
	// sketch receives an update or merge: mapped checkpoints are
	// read-only serving replicas.
	ErrReadOnly = sketch.ErrReadOnlyPlane
)

// Backends returns the counter-plane backends the named algorithm
// supports (nil for unknown names). Every algorithm supports
// BackendDense; the linear-add table sketches (countmin, countmedian,
// dengrafiei) also support BackendCompressed; all table sketches
// support BackendMmap. The bias-aware core algorithms keep their own
// sample-and-recover state and are dense-only.
func Backends(algo string) []Backend {
	e, ok := registry.Lookup(algo)
	if !ok {
		return nil
	}
	bs := []Backend{BackendDense}
	if e.Compressed {
		bs = append(bs, BackendCompressed)
	}
	if e.Mmap {
		bs = append(bs, BackendMmap)
	}
	return bs
}

// BackendOf reports which counter-plane backend s lives on. Foreign
// Sketch implementations and backend-less algorithms report
// BackendDense.
func BackendOf(s Sketch) Backend {
	b, ok := s.(baser)
	if !ok {
		return BackendDense
	}
	if bk, ok := b.base().inner.(interface{ Backend() sketch.BackendKind }); ok {
		return bk.Backend()
	}
	return BackendDense
}

// WriteSketchFile writes s to path as an aligned wire-format v2
// checkpoint file — the layout OpenMmap serves in place. The write is
// atomic (temp file + rename), and the file is also a valid Encode
// stream: Decode and Unmarshal read it like any other checkpoint.
func WriteSketchFile(path string, s Sketch) error {
	h, ok := s.(baser)
	if !ok {
		return fmt.Errorf("%w: %T", ErrForeignSketch, s)
	}
	if err := codec.WriteSketchFile(path, h.base().desc, h.base().inner); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// OpenMmap maps the checkpoint file at path and serves its sketch
// directly from the mapped bytes: no counters are decoded into the
// heap, so the time from open to first query is constant in the sketch
// size. The sketch is read-only — Query/QueryBatch (and TopK/Bias
// where the algorithm has them) work; Update and Merge fail with
// ErrReadOnly.
//
// close unmaps the file; the sketch must not be touched after close
// returns. The file must have been written by WriteSketchFile (or
// codec.EncodeSketchAligned) and hold an algorithm with mmap
// capability — see Backends.
func OpenMmap(path string) (s Sketch, close func() error, err error) {
	inner, desc, unmap, err := codec.OpenMmapSketch(path)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: %w", err)
	}
	e, ok := registry.Lookup(desc.Algo)
	if !ok {
		unmap()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, desc.Algo)
	}
	return wrap(e, inner, desc), unmap, nil
}

// DecodeWith is Decode with an explicit counter-plane backend for the
// reconstructed sketch: BackendDense restores exactly like Decode;
// BackendCompressed re-inserts the decoded counters into a Counter
// Braids plane (the algorithm must support it — see Backends).
// BackendMmap is refused: a byte stream has nothing to map — use
// OpenMmap on a file written by WriteSketchFile.
func DecodeWith(data []byte, be Backend) (Sketch, error) {
	r := bytes.NewReader(data)
	inner, desc, err := codec.DecodeSketchBackend(r, sketch.Backend{Kind: be})
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after a %d-byte payload",
			ErrTrailingData, r.Len(), len(data)-r.Len())
	}
	e, ok := registry.Lookup(desc.Algo)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, desc.Algo)
	}
	desc.Algo = e.Name
	return wrap(e, inner, desc), nil
}
