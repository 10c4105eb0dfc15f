package repro

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/registry"
)

// Encode writes s to w in wire format v2: a self-describing container
// carrying the algorithm name, shape, and seed, then the sketch state.
// Decode on the receiving side rebuilds the hash functions from the
// descriptor (the paper's shared-randomness protocol, §5.5 footnote 4)
// and restores the state, so sketches travel over any byte transport.
//
// Every registry algorithm serializes, including the non-linear
// conservative-update sketches (save/restore is local persistence and
// needs no linearity); only Exact does not, returning
// ErrNotSerializable.
func Encode(w io.Writer, s Sketch) error {
	h, ok := s.(baser)
	if !ok {
		return fmt.Errorf("%w: %T", ErrForeignSketch, s)
	}
	b := h.base()
	if _, err := registry.State(b.inner); err != nil {
		return fmt.Errorf("%w: %s", ErrNotSerializable, b.entry.Name)
	}
	return codec.EncodeSketch(w, b.desc, b.inner)
}

// Decode reads one sketch from r — wire format v2, or the legacy v1
// format for payloads written by older builds — and reconstructs it
// via the algorithm registry. The result carries the original
// algorithm, shape, and seed, so it merges with sketches from the same
// New configuration. Bytes after the sketch's container are left
// unread (containers compose on a stream); use Unmarshal to insist a
// buffer holds exactly one payload.
//
// Checkpoint containers (Sharded, Windowed, Range) are not single
// sketches: Decode rejects them with an error naming what the
// container holds; restore those with RestoreSharded, RestoreWindowed,
// or RestoreRange.
func Decode(r io.Reader) (Sketch, error) {
	inner, desc, err := codec.DecodeSketch(r)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	e, ok := registry.Lookup(desc.Algo)
	if !ok {
		// DecodeSketch already resolved the name; this is unreachable
		// short of a registry bug.
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, desc.Algo)
	}
	desc.Algo = e.Name
	return wrap(e, inner, desc), nil
}

// Marshal is Encode into a fresh byte slice.
func Marshal(s Sketch) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal reconstructs a sketch from a buffer holding exactly one
// Marshal payload (v2, or legacy v1). Unlike the stream-oriented
// Decode, it rejects trailing bytes after the payload with
// ErrTrailingData: a buffer that parses but keeps going is corrupt —
// or an attacker smuggling data past a validator — not a valid sketch.
func Unmarshal(data []byte) (Sketch, error) {
	r := bytes.NewReader(data)
	sk, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after a %d-byte payload",
			ErrTrailingData, r.Len(), len(data)-r.Len())
	}
	return sk, nil
}
