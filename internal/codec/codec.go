// Package codec is the streaming wire-format subsystem: versioned,
// length-prefixed, section-based encode/decode of every serving
// structure in the repository — single sketches, concurrent.Sharded
// replica sets, sliding-window pane rings, and dyadic range-query
// level stacks — over io.Writer/io.Reader. Algorithm dispatch is
// registry-driven: a decoded descriptor resolves through the one
// catalog in internal/registry, exactly as repro.New does, so a
// checkpoint written by one process reconstructs in another from the
// shared seed (the paper's shared-randomness protocol, §5.5
// footnote 4).
//
// Two format versions exist:
//
//   - v1 ("BAS1") is the legacy single-sketch format: a header naming
//     the algorithm, shape, and seed, then one length-prefixed state
//     payload. It is kept readable forever — payloads written by
//     older builds still load — and writable through EncodeV1 for
//     compatibility tooling, but new code writes v2.
//
//   - v2 ("BAS2") is a container format: the magic, a container kind
//     (sketch, sharded, windowed, range), a section count, then a
//     sequence of sections, each framed as (tag byte, u64 LE length,
//     payload). Composite containers nest: a windowed checkpoint
//     carries its open pane as an embedded sharded container, a range
//     checkpoint carries one embedded sketch container per dyadic
//     level. All integers are little-endian.
//
// Decode paths are hardened against hostile input: every length
// prefix is bounded by what the already-validated descriptor implies
// before it drives an allocation, large payloads are read in bounded
// chunks so a huge claimed length backed by a short stream errors
// after at most one chunk instead of provoking a giant up-front
// allocation, and nested containers are framed by io.LimitReader
// rather than buffered. Garbage errors; it never panics or exhausts
// memory.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Format magics. The version byte is part of the magic: "BAS1" is the
// legacy single-sketch format, "BAS2" the sectioned container format.
const (
	MagicV1 = "BAS1"
	MagicV2 = "BAS2"
)

// Container kinds (the byte after the v2 magic).
const (
	KindSketch   = 1 // one sketch: desc + state
	KindSharded  = 2 // concurrent.Sharded checkpoint: desc + epochs + per-shard states
	KindWindowed = 3 // window checkpoint: desc + rotation state + panes + nested open pane
	KindRange    = 4 // rangequery checkpoint: dimension + nested per-level sketches
	KindBatch    = 5 // ingest frame: one (idx, delta) update batch (see batch.go)
	KindDelta    = 6 // delta frame: changed-shard sections for one monitoring hop (see delta.go)
)

// Section tags.
const (
	secDesc       = 1  // algorithm name + (n, s, d, seed)
	secState      = 2  // registry Stateful payload (MarshalState bytes)
	secExact      = 3  // dense exact vector: n float64s (composite members only)
	secShardMeta  = 4  // shard count + per-shard epochs
	secWindowMeta = 5  // panes, pane width, open-pane sequence, closed-pane sequences
	secRangeMeta  = 6  // base dimension + level count
	secNested     = 7  // an embedded v2 container
	secPad        = 8  // alignment padding (zero bytes) in older aligned checkpoint files; skipped on decode
	secBatch      = 9  // u32 element count + count × (u64 index, f64 delta)
	secDeltaMeta  = 10 // delta frame: flags + shard count + entry count + (shard, epoch) pairs
	secSparse     = 11 // delta entry state: dense length + count × (u32 word index, u64 word) of its nonzero words
)

// maxPad bounds a pad section: the padding only ever 8-aligned the
// following state payload, so it is always under 8 bytes.
const maxPad = 8

// Decode-side bounds. They reject absurd structure counts before any
// structure-proportional allocation; the per-payload byte bounds come
// from the descriptor via stateBound.
const (
	maxNameLen  = 256
	maxSections = 1 << 17
	// MaxShards bounds the shard count a sharded checkpoint may carry.
	MaxShards = 1 << 16
	// MaxPanes bounds the pane count a windowed checkpoint may carry
	// (matching the facade's WithPanes bound).
	MaxPanes = 1 << 16
	// maxRangeDim matches the facade's MaxRangeDim: the largest base
	// dimension a range checkpoint may declare.
	maxRangeDim = 1 << 26
	// maxCheckpointCells bounds shards × cells-per-replica for a
	// sharded checkpoint: restoring allocates that many counters, so a
	// hostile header must not be able to imply terabytes of replicas.
	maxCheckpointCells = 1 << 28
	// chunk is the incremental-read granularity for large payloads: a
	// hostile length prefix costs at most one chunk of allocation
	// before the short read errors out.
	chunk = 1 << 20
)

// Desc describes how to reconstruct a sketch: the registry constructor
// arguments. Two processes exchanging sketches must agree on it,
// exactly as they must agree on hash functions in the paper. Algo is
// any name the registry resolves — canonical ("l2sr") or the paper's
// legend ("l2-S/R") — so streams written by older builds still load.
type Desc struct {
	Algo string
	N    int
	S    int
	D    int
	Seed int64
}

// Validate bounds the descriptor fields before they reach a
// constructor — payloads come from the network and must not be able
// to panic or exhaust memory here. The public facade applies the same
// bounds at construction time, so every sketch it builds round-trips.
func (d Desc) Validate() error {
	if d.N < 1 || d.N > 1<<26 {
		return fmt.Errorf("codec: implausible dimension %d", d.N)
	}
	if d.S < 4 || d.S > 1<<22 {
		return fmt.Errorf("codec: implausible row width %d", d.S)
	}
	if d.D < 1 || d.D > 64 {
		return fmt.Errorf("codec: implausible depth %d", d.D)
	}
	if d.S*d.D > 1<<24 {
		return fmt.Errorf("codec: implausible table size %d cells", d.S*d.D)
	}
	if d.Seed < 0 {
		return fmt.Errorf("codec: negative seed")
	}
	return nil
}

// Shape returns the registry construction shape the descriptor names.
func (d Desc) Shape() registry.Shape {
	return registry.Shape{N: d.N, S: d.S, D: d.D, Seed: d.Seed}
}

// lookup resolves the descriptor's algorithm and validates its shape —
// the one gate every decode path passes before any shape-derived
// allocation.
func (d Desc) lookup() (*registry.Entry, error) {
	e, ok := registry.Lookup(d.Algo)
	if !ok {
		return nil, fmt.Errorf("codec: unknown algorithm %q", d.Algo)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// cells returns the counter count one replica of this shape holds —
// the unit of the restore-side allocation bounds.
func (d Desc) cells(e *registry.Entry) uint64 {
	switch e.Name {
	case registry.Exact:
		return uint64(d.N)
	case registry.CounterBraid:
		// The braid is sized by N alone (CB design rule): ≈1.5·N
		// shallow counters plus the deep second layer, each a u64 on
		// the wire.
		l1 := uint64(d.N)*3/2 + 8
		return l1 + l1/4 + 16
	default:
		return uint64(d.S) * uint64(d.D+2)
	}
}

// stateBound is the largest plausible state payload for the shape:
// (D+2)·S cells plus estimator floats for hashed sketches, the dense
// vector for exact. Anything bigger is corrupt, and the bound keeps
// hostile headers from forcing huge allocations.
func stateBound(d Desc, e *registry.Entry) uint64 {
	return 8*d.cells(e) + 4096
}

// maxStateBound caps stateBound over every shape Desc.Validate admits:
// no replica of a valid shape holds maxCheckpointCells counters.
const maxStateBound = 8*maxCheckpointCells + 4096

// section is one framed unit of a v2 container.
type section struct {
	tag     byte
	payload []byte
}

// writeContainer frames secs as a v2 container on w.
func writeContainer(w io.Writer, kind byte, secs []section) error {
	hdr := make([]byte, 0, 9)
	hdr = append(hdr, MagicV2...)
	hdr = append(hdr, kind)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(secs)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, s := range secs {
		var sh [9]byte
		sh[0] = s.tag
		binary.LittleEndian.PutUint64(sh[1:], uint64(len(s.payload)))
		if _, err := w.Write(sh[:]); err != nil {
			return err
		}
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}

// readHeader consumes the magic and, for v2, the kind byte and
// section count. version is 1 or 2.
func readHeader(r io.Reader) (version int, kind byte, nsec uint32, err error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("codec: reading magic: %w", err)
	}
	switch string(m[:]) {
	case MagicV1:
		return 1, 0, 0, nil
	case MagicV2:
		var h [5]byte
		if _, err := io.ReadFull(r, h[:]); err != nil {
			return 0, 0, 0, fmt.Errorf("codec: reading container header: %w", err)
		}
		nsec = binary.LittleEndian.Uint32(h[1:])
		if nsec > maxSections {
			return 0, 0, 0, fmt.Errorf("codec: implausible section count %d", nsec)
		}
		return 2, h[0], nsec, nil
	default:
		return 0, 0, 0, fmt.Errorf("codec: bad magic %q", m[:])
	}
}

// kindName names a container kind for error messages.
func kindName(kind byte) string {
	switch kind {
	case KindSketch:
		return "sketch"
	case KindSharded:
		return "sharded checkpoint"
	case KindWindowed:
		return "windowed checkpoint"
	case KindRange:
		return "range checkpoint"
	case KindBatch:
		return "update batch"
	case KindDelta:
		return "delta frame"
	default:
		return fmt.Sprintf("unknown kind %d", kind)
	}
}

// readSectionHeader consumes one section header and enforces the tag.
func readSectionHeader(r io.Reader, wantTag byte) (uint64, error) {
	var h [9]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, fmt.Errorf("codec: reading section header: %w", err)
	}
	if h[0] != wantTag {
		return 0, fmt.Errorf("codec: section tag %d where %d expected", h[0], wantTag)
	}
	return binary.LittleEndian.Uint64(h[1:]), nil
}

// readPayload reads an n-byte payload, rejecting lengths over max and
// allocating in bounded chunks: a hostile length prefix backed by a
// short stream errors after at most one chunk instead of forcing a
// giant up-front allocation — section lengths are effectively bounded
// by the input actually present, not just by what they claim.
func readPayload(r io.Reader, n, max uint64) ([]byte, error) {
	if n > max {
		return nil, fmt.Errorf("codec: section length %d exceeds shape bound %d", n, max)
	}
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("codec: reading %d-byte section: %w", n, err)
		}
		return buf, nil
	}
	buf := make([]byte, 0, chunk)
	for read := uint64(0); read < n; {
		m := uint64(chunk)
		if rem := n - read; rem < m {
			m = rem
		}
		off := len(buf)
		buf = append(buf, make([]byte, m)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, fmt.Errorf("codec: reading %d-byte section: %w", n, err)
		}
		read += m
	}
	return buf, nil
}

// ErrHashUnsupported is wrapped by every decode path handed a
// descriptor that carries a hash-family byte. Older builds appended
// that byte to sketches whose rows drew from simple tabulation
// hashing; this build hashes every row with the pairwise family, and
// restoring such a payload under it would answer queries from the
// wrong buckets, so the payload is refused instead.
var ErrHashUnsupported = errors.New("codec: hash family not supported")

// descPayload serializes a descriptor section body: the u16 name
// length, the name, then N, S, D, and Seed as u64s.
func descPayload(d Desc) []byte {
	name := []byte(d.Algo)
	buf := make([]byte, 0, 2+len(name)+32)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	for _, v := range []uint64{uint64(d.N), uint64(d.S), uint64(d.D), uint64(d.Seed)} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// maxDescPayload bounds a descriptor section: the longest name plus
// the number block, plus the one hash-family byte parseDesc must still
// read in order to reject it with ErrHashUnsupported.
const maxDescPayload = 2 + maxNameLen + 33

// parseDesc decodes a descPayload body. A body one byte longer than
// that layout carries a hash-family byte and fails with
// ErrHashUnsupported; any other length is malformed.
func parseDesc(payload []byte) (Desc, error) {
	if len(payload) < 2 {
		return Desc{}, fmt.Errorf("codec: descriptor section truncated")
	}
	nameLen := int(binary.LittleEndian.Uint16(payload))
	if nameLen <= maxNameLen && len(payload) == 2+nameLen+33 {
		return Desc{}, fmt.Errorf("%w: the descriptor names hash family %d, and only the pairwise family can be restored",
			ErrHashUnsupported, payload[len(payload)-1])
	}
	if nameLen > maxNameLen || len(payload) != 2+nameLen+32 {
		return Desc{}, fmt.Errorf("codec: malformed descriptor section (%d bytes, name length %d)", len(payload), nameLen)
	}
	nums := payload[2+nameLen:]
	return Desc{
		Algo: string(payload[2 : 2+nameLen]),
		N:    int(binary.LittleEndian.Uint64(nums)),
		S:    int(binary.LittleEndian.Uint64(nums[8:])),
		D:    int(binary.LittleEndian.Uint64(nums[16:])),
		Seed: int64(binary.LittleEndian.Uint64(nums[24:])),
	}, nil
}

// readDescSection consumes a desc section, resolves the algorithm,
// and validates the shape.
func readDescSection(r io.Reader) (Desc, *registry.Entry, error) {
	n, err := readSectionHeader(r, secDesc)
	if err != nil {
		return Desc{}, nil, err
	}
	payload, err := readPayload(r, n, maxDescPayload)
	if err != nil {
		return Desc{}, nil, err
	}
	d, err := parseDesc(payload)
	if err != nil {
		return Desc{}, nil, err
	}
	e, err := d.lookup()
	if err != nil {
		return Desc{}, nil, err
	}
	return d, e, nil
}

// captureState returns the section tag and payload carrying sk's
// state: secState for registry-stateful sketches, secExact (the dense
// vector) for the exact ground truth, which composite checkpoints
// carry so a Sharded/Windowed/Range built over exact is durable too.
func captureState(sk sketch.Sketch) (byte, []byte, error) {
	if ex, ok := sk.(*stream.Exact); ok {
		v := ex.Vector()
		buf := make([]byte, 8*len(v))
		for i, f := range v {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
		}
		return secExact, buf, nil
	}
	st, err := registry.State(sk)
	if err != nil {
		return 0, nil, fmt.Errorf("codec: %T is not serializable (its state is not carried by the wire format)", sk)
	}
	return secState, st.MarshalState(), nil
}

// readStateSection consumes a state section for a sketch of the given
// shape, enforcing that the tag matches the algorithm (exact state
// travels as secExact, everything else as secState) and that the
// length sits under the shape bound.
func readStateSection(r io.Reader, d Desc, e *registry.Entry) (byte, []byte, error) {
	var h [9]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, fmt.Errorf("codec: reading state section header: %w", err)
	}
	tag, n := h[0], binary.LittleEndian.Uint64(h[1:])
	exact := e.Name == registry.Exact
	switch {
	case tag == secState && !exact:
	case tag == secExact && exact:
		if n != uint64(8*d.N) {
			return 0, nil, fmt.Errorf("codec: exact state is %d bytes for dimension %d, want %d", n, d.N, 8*d.N)
		}
	default:
		return 0, nil, fmt.Errorf("codec: state section tag %d does not match algorithm %s", tag, e.Name)
	}
	payload, err := readPayload(r, n, stateBound(d, e))
	if err != nil {
		return 0, nil, err
	}
	return tag, payload, nil
}

// restoreState installs a captured state payload into a freshly
// constructed replica of the same shape.
func restoreState(sk sketch.Sketch, tag byte, payload []byte) error {
	if tag == secExact {
		ex, ok := sk.(*stream.Exact)
		if !ok {
			return fmt.Errorf("codec: exact state for non-exact sketch %T", sk)
		}
		v := ex.Vector()
		if len(payload) != 8*len(v) {
			return fmt.Errorf("codec: exact state is %d bytes for dimension %d", len(payload), len(v))
		}
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return nil
	}
	st, err := registry.State(sk)
	if err != nil {
		return fmt.Errorf("codec: %T is not serializable", sk)
	}
	if err := st.UnmarshalState(payload); err != nil {
		return fmt.Errorf("codec: restoring state: %w", err)
	}
	return nil
}

// EncodeSketch writes one sketch as a v2 single-sketch container:
// descriptor section, then state section. Exact is refused — a
// standalone exact "sketch" is the raw vector, which the single-sketch
// format deliberately does not carry (composite checkpoints do).
func EncodeSketch(w io.Writer, desc Desc, sk sketch.Sketch) error {
	tag, payload, err := captureState(sk)
	if err != nil {
		return err
	}
	return encodeSketchSections(w, desc, tag, payload, false)
}

// encodeSketchContainer is EncodeSketch with the exact gate open, for
// composite members (range levels may be exact).
func encodeSketchContainer(w io.Writer, desc Desc, sk sketch.Sketch) error {
	tag, payload, err := captureState(sk)
	if err != nil {
		return err
	}
	return encodeSketchSections(w, desc, tag, payload, true)
}

func encodeSketchSections(w io.Writer, desc Desc, tag byte, payload []byte, allowExact bool) error {
	if tag == secExact && !allowExact {
		return fmt.Errorf("codec: exact sketches are not serializable as standalone containers")
	}
	return writeContainer(w, KindSketch, []section{
		{secDesc, descPayload(desc)},
		{tag, payload},
	})
}

// DecodeSketch reads one sketch written by EncodeSketch (v2) or the
// legacy v1 format, reconstructing it through the algorithm registry
// and restoring its state. Trailing bytes after the container are left
// unread, so containers compose on a stream.
func DecodeSketch(r io.Reader) (sketch.Sketch, Desc, error) {
	version, kind, nsec, err := readHeader(r)
	if err != nil {
		return nil, Desc{}, err
	}
	if version == 1 {
		return decodeV1Body(r)
	}
	if kind != KindSketch {
		return nil, Desc{}, fmt.Errorf("codec: container holds a %s, not a single sketch", kindName(kind))
	}
	return decodeSketchSections(r, nsec, false)
}

// decodeSketchContainer decodes a nested sketch container (exact
// permitted), for composite members.
func decodeSketchContainer(r io.Reader) (sketch.Sketch, Desc, error) {
	version, kind, nsec, err := readHeader(r)
	if err != nil {
		return nil, Desc{}, err
	}
	if version != 2 || kind != KindSketch {
		return nil, Desc{}, fmt.Errorf("codec: embedded container is not a v2 sketch")
	}
	return decodeSketchSections(r, nsec, true)
}

func decodeSketchSections(r io.Reader, nsec uint32, allowExact bool) (sketch.Sketch, Desc, error) {
	if nsec != 2 && nsec != 3 {
		return nil, Desc{}, fmt.Errorf("codec: sketch container has %d sections, want 2 or 3", nsec)
	}
	desc, e, err := readDescSection(r)
	if err != nil {
		return nil, Desc{}, err
	}
	if e.Name == registry.Exact && !allowExact {
		return nil, Desc{}, fmt.Errorf("codec: exact sketches are not serializable as standalone containers")
	}
	if nsec == 3 {
		// Older builds wrote checkpoint files for memory-mapped serving
		// with a pad section between descriptor and state, so the state
		// payload started 8-aligned in the file. Those files still
		// load: the padding is just skipped.
		n, err := readSectionHeader(r, secPad)
		if err != nil {
			return nil, Desc{}, err
		}
		if _, err := readPayload(r, n, maxPad); err != nil {
			return nil, Desc{}, err
		}
	}
	tag, payload, err := readStateSection(r, desc, e)
	if err != nil {
		return nil, Desc{}, err
	}
	sk, err := registry.SafeNew(desc.Algo, desc.Shape())
	if err != nil {
		return nil, Desc{}, err
	}
	if err := restoreState(sk, tag, payload); err != nil {
		return nil, Desc{}, err
	}
	return sk, desc, nil
}

// EncodeV1 writes the legacy v1 single-sketch format — the layout
// every payload produced by pre-v2 builds uses. It is kept (alongside
// the v1 golden vectors) so compatibility tooling and tests can still
// produce v1 bytes; new code writes v2 via EncodeSketch.
func EncodeV1(w io.Writer, desc Desc, sk sketch.Sketch) error {
	st, err := registry.State(sk)
	if err != nil {
		return fmt.Errorf("codec: %T is not serializable (its state is not carried by the wire format)", sk)
	}
	if _, err := io.WriteString(w, MagicV1); err != nil {
		return err
	}
	name := []byte(desc.Algo)
	hdr := make([]byte, 4+len(name)+8*4)
	binary.LittleEndian.PutUint32(hdr, uint32(len(name)))
	copy(hdr[4:], name)
	off := 4 + len(name)
	for _, v := range []uint64{uint64(desc.N), uint64(desc.S), uint64(desc.D), uint64(desc.Seed)} {
		binary.LittleEndian.PutUint64(hdr[off:], v)
		off += 8
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	payload := st.MarshalState()
	var plen [8]byte
	binary.LittleEndian.PutUint64(plen[:], uint64(len(payload)))
	if _, err := w.Write(plen[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// decodeV1Body reads a v1 payload after its magic has been consumed.
func decodeV1Body(r io.Reader) (sketch.Sketch, Desc, error) {
	var desc Desc
	var nameLen [4]byte
	if _, err := io.ReadFull(r, nameLen[:]); err != nil {
		return nil, desc, fmt.Errorf("codec: reading v1 header: %w", err)
	}
	nl := binary.LittleEndian.Uint32(nameLen[:])
	if nl > maxNameLen {
		return nil, desc, fmt.Errorf("codec: implausible algorithm name length %d", nl)
	}
	name := make([]byte, nl)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, desc, fmt.Errorf("codec: reading v1 header: %w", err)
	}
	nums := make([]byte, 8*4)
	if _, err := io.ReadFull(r, nums); err != nil {
		return nil, desc, fmt.Errorf("codec: reading v1 header: %w", err)
	}
	desc = Desc{
		Algo: string(name),
		N:    int(binary.LittleEndian.Uint64(nums)),
		S:    int(binary.LittleEndian.Uint64(nums[8:])),
		D:    int(binary.LittleEndian.Uint64(nums[16:])),
		Seed: int64(binary.LittleEndian.Uint64(nums[24:])),
	}
	e, err := desc.lookup()
	if err != nil {
		return nil, desc, err
	}
	if e.Name == registry.Exact {
		return nil, desc, fmt.Errorf("codec: exact sketches are not serializable as standalone containers")
	}
	var plen [8]byte
	if _, err := io.ReadFull(r, plen[:]); err != nil {
		return nil, desc, fmt.Errorf("codec: reading v1 payload length: %w", err)
	}
	payload, err := readPayload(r, binary.LittleEndian.Uint64(plen[:]), stateBound(desc, e))
	if err != nil {
		return nil, desc, err
	}
	sk, err := registry.SafeNew(desc.Algo, desc.Shape())
	if err != nil {
		return nil, desc, err
	}
	if err := restoreState(sk, secState, payload); err != nil {
		return nil, desc, err
	}
	return sk, desc, nil
}
