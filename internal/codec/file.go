package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/registry"
	"repro/internal/sketch"
)

// This file is the checkpoint-file layer of the v2 format: an aligned
// writer whose state payload starts at an 8-byte-aligned file offset,
// and an mmap-backed opener that serves a sketch straight out of such
// a file — O(1) time-to-first-query, no decode into the heap. The
// aligned layout is an ordinary 3-section v2 sketch container (desc,
// pad, state), so streams and older readers that understand the pad
// section decode it normally; only the mmap opener *requires* the
// alignment.

// Typed file/mmap errors.
var (
	// ErrMmap wraps every failure to serve a checkpoint file by mmap:
	// unreadable file, malformed or misaligned container, a state
	// section that does not span the rest of the file, or an algorithm
	// without mmap capability. Rewrite the file with WriteSketchFile to
	// get the aligned layout.
	ErrMmap = errors.New("codec: cannot serve checkpoint file by mmap")
	// ErrMmapUnsupported is returned on platforms without memory
	// mapping support (the non-unix build).
	ErrMmapUnsupported = errors.New("codec: mmap is not supported on this platform")
)

// alignedSketchSections builds the 3-section aligned container: the
// pad section sizes itself so the state payload begins at an 8-aligned
// offset (header 9 + three section headers 9·3 + desc payload + pad).
func alignedSketchSections(desc Desc, tag byte, payload []byte) []section {
	dlen := len(descPayload(desc))
	padLen := (8 - (36+dlen)%8) % 8
	return []section{
		{secDesc, descPayload(desc)},
		{secPad, make([]byte, padLen)},
		{tag, payload},
	}
}

// EncodeSketchAligned writes one sketch as a v2 container whose state
// payload starts at an 8-byte-aligned offset from the start of the
// stream — the layout OpenMmapSketch requires. Decoders treat it as a
// normal sketch container (the pad section is skipped).
func EncodeSketchAligned(w io.Writer, desc Desc, sk sketch.Sketch) error {
	tag, payload, err := captureState(sk)
	if err != nil {
		return err
	}
	if tag == secExact {
		return fmt.Errorf("codec: exact sketches are not serializable as standalone containers")
	}
	return writeContainer(w, KindSketch, alignedSketchSections(desc, tag, payload))
}

// WriteSketchFile writes the sketch to path in the aligned container
// layout, so OpenMmapSketch can later serve it in place. The write
// goes through a temp file + rename, so a crash never leaves a
// half-written checkpoint at path.
func WriteSketchFile(path string, desc Desc, sk sketch.Sketch) error {
	f, err := os.CreateTemp(dirOf(path), ".sketch-*")
	if err != nil {
		return fmt.Errorf("codec: creating checkpoint file: %w", err)
	}
	tmp := f.Name()
	if err := EncodeSketchAligned(f, desc, sk); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("codec: writing checkpoint file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("codec: publishing checkpoint file: %w", err)
	}
	return nil
}

// dirOf is filepath.Dir without the import: the temp file must live on
// the same filesystem as path for the rename to be atomic.
func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			if i == 0 {
				return string(path[0])
			}
			return path[:i]
		}
	}
	return "."
}

// parseMappedSketch validates an aligned sketch container sitting in
// mapped memory and returns its descriptor, registry entry, and the
// in-place state payload. Every slice is bounds-checked first — a
// hostile or truncated file must error, never panic — and nothing is
// copied: the returned payload aliases data.
func parseMappedSketch(data []byte) (Desc, *registry.Entry, []byte, error) {
	if len(data) < 9 {
		return Desc{}, nil, nil, fmt.Errorf("%w: file of %d bytes is shorter than a container header", ErrMmap, len(data))
	}
	if string(data[:4]) != MagicV2 {
		return Desc{}, nil, nil, fmt.Errorf("%w: bad magic %q (v1 payloads cannot be mapped; rewrite with WriteSketchFile)", ErrMmap, data[:4])
	}
	if data[4] != KindSketch {
		return Desc{}, nil, nil, fmt.Errorf("%w: container holds a %s, not a single sketch", ErrMmap, kindName(data[4]))
	}
	if nsec := binary.LittleEndian.Uint32(data[5:9]); nsec != 3 {
		return Desc{}, nil, nil, fmt.Errorf("%w: container has %d sections, want the 3-section aligned layout (rewrite with WriteSketchFile)", ErrMmap, nsec)
	}

	// Desc section.
	off := 9
	tag, n, err := mappedSectionHeader(data, off)
	if err != nil {
		return Desc{}, nil, nil, err
	}
	if tag != secDesc {
		return Desc{}, nil, nil, fmt.Errorf("%w: section tag %d where descriptor expected", ErrMmap, tag)
	}
	if n > maxDescPayload {
		return Desc{}, nil, nil, fmt.Errorf("%w: descriptor section of %d bytes", ErrMmap, n)
	}
	desc, err := parseDesc(data[off+9 : off+9+int(n)])
	if err != nil {
		return Desc{}, nil, nil, fmt.Errorf("%w: %w", ErrMmap, err)
	}
	e, err := desc.lookup()
	if err != nil {
		return Desc{}, nil, nil, fmt.Errorf("%w: %w", ErrMmap, err)
	}
	off += 9 + int(n)

	// Pad section.
	tag, n, err = mappedSectionHeader(data, off)
	if err != nil {
		return Desc{}, nil, nil, err
	}
	if tag != secPad || n >= maxPad {
		return Desc{}, nil, nil, fmt.Errorf("%w: section tag %d length %d where pad expected", ErrMmap, tag, n)
	}
	off += 9 + int(n)

	// State section: must span exactly the rest of the file, start
	// 8-aligned, and sit under the shape bound.
	tag, n, err = mappedSectionHeader(data, off)
	if err != nil {
		return Desc{}, nil, nil, err
	}
	if tag != secState {
		return Desc{}, nil, nil, fmt.Errorf("%w: state section tag %d cannot be served in place", ErrMmap, tag)
	}
	stateOff := off + 9
	if uint64(len(data)-stateOff) != n {
		return Desc{}, nil, nil, fmt.Errorf("%w: state section claims %d bytes, file holds %d", ErrMmap, n, len(data)-stateOff)
	}
	if n > stateBound(desc, e) {
		return Desc{}, nil, nil, fmt.Errorf("%w: state section length %d exceeds shape bound %d", ErrMmap, n, stateBound(desc, e))
	}
	if stateOff%8 != 0 {
		return Desc{}, nil, nil, fmt.Errorf("%w: state payload at file offset %d is not 8-aligned (rewrite with WriteSketchFile)", ErrMmap, stateOff)
	}
	return desc, e, data[stateOff:], nil
}

// mappedSectionHeader reads the section header at off with bounds
// checks (tag byte + u64 length), for the in-place parser.
func mappedSectionHeader(data []byte, off int) (byte, uint64, error) {
	if off < 0 || len(data)-off < 9 {
		return 0, 0, fmt.Errorf("%w: truncated section header at offset %d", ErrMmap, off)
	}
	tag := data[off]
	n := binary.LittleEndian.Uint64(data[off+1 : off+9])
	if n > uint64(len(data)-off-9) {
		return 0, 0, fmt.Errorf("%w: section at offset %d claims %d bytes, file holds %d", ErrMmap, off, n, len(data)-off-9)
	}
	return tag, n, nil
}

// OpenMmapSketch maps the checkpoint file at path and constructs its
// sketch directly over the mapped state — the counters are never
// decoded into the heap, so time-to-first-query is O(1) in the sketch
// size. The result is read-only: updates and merges return (or panic
// with) sketch.ErrReadOnlyPlane. close unmaps the file; the sketch
// must not be used after close returns.
//
// The file must be in the aligned layout WriteSketchFile produces and
// hold an algorithm with mmap capability; anything else errors (wrap
// target ErrMmap) without mapping left behind.
func OpenMmapSketch(path string) (sk sketch.Sketch, desc Desc, close func() error, err error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, Desc{}, nil, err
	}
	defer func() {
		if err != nil {
			unmap()
		}
	}()
	desc, _, payload, err := parseMappedSketch(data)
	if err != nil {
		return nil, Desc{}, nil, err
	}
	sk, err = registry.SafeNewBackend(desc.Algo, desc.Shape(),
		sketch.Backend{Kind: sketch.BackendMmap, Mapped: payload})
	if err != nil {
		return nil, Desc{}, nil, fmt.Errorf("%w: %w", ErrMmap, err)
	}
	desc.Backend = sketch.BackendMmap
	return sk, desc, unmap, nil
}

// DecodeSketchBackend is DecodeSketch constructing the sketch on the
// given counter-plane backend: dense (the zero Backend, identical to
// DecodeSketch) or compressed (the cell stream is re-inserted into a
// Counter Braids plane). Mmap restores need a file, not a stream — use
// OpenMmapSketch.
func DecodeSketchBackend(r io.Reader, be sketch.Backend) (sketch.Sketch, Desc, error) {
	if be.Kind == sketch.BackendMmap {
		return nil, Desc{}, fmt.Errorf("%w: a stream has no mappable bytes; use OpenMmapSketch on a checkpoint file", ErrMmap)
	}
	version, kind, nsec, err := readHeader(r)
	if err != nil {
		return nil, Desc{}, err
	}
	if version == 1 {
		if be.Kind != sketch.BackendDense {
			return nil, Desc{}, fmt.Errorf("codec: v1 payloads restore to the dense backend only")
		}
		return decodeV1Body(r)
	}
	if kind != KindSketch {
		return nil, Desc{}, fmt.Errorf("codec: container holds a %s, not a single sketch", kindName(kind))
	}
	return decodeSketchSectionsBackend(r, nsec, false, be)
}
