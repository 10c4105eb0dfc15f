package codec

// Delta frames: the wire unit of the delta-shipping distributed
// fabric (internal/distributed). A site's replica set is a
// concurrent.Sharded whose per-shard epochs advance on every write. A
// delta frame carries, for each shard whose epoch advanced since the
// last acknowledged hop, only that shard's change since then: Φ(Δx),
// the sketch of the updates the shard absorbed in between. A receiver
// adds each change to what it holds exactly once, and the epoch rule
// below is what stops a change from being added twice. Interior
// aggregation-tree nodes add up their children's changes (linearity:
// per-shard changes sum) and forward one frame upward, so the per-edge
// cost is bounded by the sketch size, not the subtree's site count. A
// site whose stream went quiet ships nothing at all.
//
// Two frame flavors share the layout, distinguished by a flag bit:
//
//   - delta: Entries holds the changed shards only, each with its
//     change and the sender's per-shard epoch, which must advance
//     strictly on one edge (an epoch is shipped at most once and never
//     regresses inside delta frames), so a repeated or replayed entry
//     is refused instead of being added again.
//   - full: Entries holds every shard's whole state — the
//     resynchronization frame a site ships when it rejoins after a
//     restart from checkpoint, and the only frame kind allowed to
//     regress epochs (the receiver replaces what it held for the
//     sender and resets its tracking wholesale).
//
// Layout (v2 container, KindDelta): a desc section, a delta-meta
// section (flags byte, shard count, entry count, then one
// (shard, epoch) pair per entry), then one state section per entry in
// entry order. A full frame's states travel dense (secState, the
// registry payload checkpoints carry). A change leaves most counters at
// +0, so each delta entry's state travels dense or sparse (secSparse:
// the dense length, then the (u32 word index, u64 word) pairs of the
// payload's nonzero 8-byte words in increasing index order), whichever
// is smaller. Decode validates every count, index, and epoch rule
// before any structure-proportional allocation; garbage errors, it
// never panics.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/registry"
	"repro/internal/sketch"
)

// deltaFlagFull marks a full-state (resynchronization) frame.
const deltaFlagFull = 1

// deltaMetaFixed is the fixed prefix of a delta-meta payload: flags
// byte + u64 shard count + u64 entry count.
const deltaMetaFixed = 17

// DeltaEntry is one shard section of a delta frame: in a delta frame,
// the shard's change since the edge's last acknowledged epoch, up to
// the given epoch; in a full frame, the shard's whole state as of it.
type DeltaEntry struct {
	Shard int
	Epoch uint64
	// Sk is the change or the state as a replica of the frame's shape.
	// EncodeDelta serializes its state; DecodeDelta reconstructs it
	// through the registry.
	Sk sketch.Sketch
}

// DeltaFrame is one hop's payload in the delta-shipping fabric.
type DeltaFrame struct {
	Desc Desc
	// Full marks a resynchronization frame: Entries covers every
	// shard and the receiver resets its epoch tracking to the carried
	// values instead of enforcing monotonicity.
	Full bool
	// Shards is the sender's replica-set width; entry shard indices
	// are positions in [0, Shards).
	Shards  int
	Entries []DeltaEntry
}

// deltaEntryRule checks the per-entry invariants shared by encode and
// decode: indices strictly increasing within [0, shards), and — in
// delta frames — a nonzero epoch (epoch 0 means "never written",
// which a changed shard cannot be; full frames carry unwritten shards
// too, so there 0 is legal).
func deltaEntryRule(shard, prevShard int, epoch uint64, shards int, full bool) error {
	if shard < 0 || shard >= shards {
		return fmt.Errorf("codec: delta entry shard %d out of range [0,%d)", shard, shards)
	}
	if shard <= prevShard {
		return fmt.Errorf("codec: delta entry shards must be strictly increasing (%d after %d)", shard, prevShard)
	}
	if !full && epoch == 0 {
		return fmt.Errorf("codec: delta entry for shard %d carries epoch 0", shard)
	}
	return nil
}

// deltaLookup resolves and gates the frame's algorithm: delta frames
// exist to be merged through the tree, so the algorithm must be
// linear, and exact would ship the raw vector.
func deltaLookup(d Desc) (*registry.Entry, error) {
	e, err := d.lookup()
	if err != nil {
		return nil, err
	}
	if !e.Linear {
		return nil, fmt.Errorf("codec: %s is not linear; delta frames cannot be aggregated", e.Name)
	}
	if e.Name == registry.Exact {
		return nil, fmt.Errorf("codec: exact ships the raw vector; delta frames carry sketches only")
	}
	return e, nil
}

// EncodeDelta writes f as a v2 delta-frame container. Entries must be
// sorted by strictly increasing shard index; full frames must cover
// every shard, delta frames must carry nonzero epochs. Each entry of a
// delta frame is written sparse when that is smaller than dense.
func EncodeDelta(w io.Writer, f DeltaFrame) error {
	if _, err := deltaLookup(f.Desc); err != nil {
		return err
	}
	if f.Shards < 1 || f.Shards > MaxShards {
		return fmt.Errorf("codec: implausible delta shard count %d", f.Shards)
	}
	if len(f.Entries) > f.Shards {
		return fmt.Errorf("codec: %d delta entries for %d shards", len(f.Entries), f.Shards)
	}
	if f.Full && len(f.Entries) != f.Shards {
		return fmt.Errorf("codec: full frame carries %d of %d shards", len(f.Entries), f.Shards)
	}
	var flags byte
	if f.Full {
		flags = deltaFlagFull
	}
	meta := make([]byte, 0, deltaMetaFixed+16*len(f.Entries))
	meta = append(meta, flags)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(f.Shards))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(f.Entries)))
	prev := -1
	states := make([]section, 0, len(f.Entries))
	for _, e := range f.Entries {
		if err := deltaEntryRule(e.Shard, prev, e.Epoch, f.Shards, f.Full); err != nil {
			return err
		}
		prev = e.Shard
		meta = binary.LittleEndian.AppendUint64(meta, uint64(e.Shard))
		meta = binary.LittleEndian.AppendUint64(meta, e.Epoch)
		tag, payload, err := captureState(e.Sk)
		if err != nil {
			return err
		}
		if tag == secExact {
			return fmt.Errorf("codec: exact state in a delta frame")
		}
		if !f.Full {
			if sparse, ok := sparseState(payload); ok {
				tag, payload = secSparse, sparse
			}
		}
		states = append(states, section{tag, payload})
	}
	secs := append([]section{
		{secDesc, descPayload(f.Desc)},
		{secDeltaMeta, meta},
	}, states...)
	return writeContainer(w, KindDelta, secs)
}

// DecodeDelta reads one delta frame written by EncodeDelta,
// reconstructing every carried shard replica through the registry.
// Trailing bytes after the container are left unread, so frames
// compose on a stream. Hostile input — truncated metadata, duplicated
// or out-of-range shard indices, zero epochs in delta frames, counts
// that disagree with the section count — errors; it never panics.
func DecodeDelta(r io.Reader) (DeltaFrame, error) {
	version, kind, nsec, err := readHeader(r)
	if err != nil {
		return DeltaFrame{}, err
	}
	if version != 2 || kind != KindDelta {
		return DeltaFrame{}, wrongKindError(version, kind, "delta frame")
	}
	desc, e, err := readDescSection(r)
	if err != nil {
		return DeltaFrame{}, err
	}
	if _, err := deltaLookup(desc); err != nil {
		return DeltaFrame{}, err
	}
	metaLen, err := readSectionHeader(r, secDeltaMeta)
	if err != nil {
		return DeltaFrame{}, err
	}
	meta, err := readPayload(r, metaLen, deltaMetaFixed+16*MaxShards)
	if err != nil {
		return DeltaFrame{}, err
	}
	if len(meta) < deltaMetaFixed {
		return DeltaFrame{}, fmt.Errorf("codec: delta metadata section truncated (%d bytes)", len(meta))
	}
	flags := meta[0]
	if flags&^byte(deltaFlagFull) != 0 {
		return DeltaFrame{}, fmt.Errorf("codec: unknown delta flags %#x", flags)
	}
	full := flags&deltaFlagFull != 0
	shards := binary.LittleEndian.Uint64(meta[1:])
	count := binary.LittleEndian.Uint64(meta[9:])
	if shards < 1 || shards > MaxShards {
		return DeltaFrame{}, fmt.Errorf("codec: implausible delta shard count %d", shards)
	}
	if count > shards {
		return DeltaFrame{}, fmt.Errorf("codec: %d delta entries for %d shards", count, shards)
	}
	if full && count != shards {
		return DeltaFrame{}, fmt.Errorf("codec: full frame carries %d of %d shards", count, shards)
	}
	if uint64(len(meta)) != deltaMetaFixed+16*count {
		return DeltaFrame{}, fmt.Errorf("codec: delta metadata is %d bytes for %d entries", len(meta), count)
	}
	if uint64(nsec) != 2+count {
		return DeltaFrame{}, fmt.Errorf("codec: delta container has %d sections for %d entries", nsec, count)
	}
	if count*desc.cells(e) > maxCheckpointCells {
		return DeltaFrame{}, fmt.Errorf("codec: delta frame implies %d cells across %d entries, over the %d bound",
			count*desc.cells(e), count, uint64(maxCheckpointCells))
	}
	f := DeltaFrame{Desc: desc, Full: full, Shards: int(shards)}
	f.Entries = make([]DeltaEntry, 0, count)
	prev := -1
	for i := uint64(0); i < count; i++ {
		shard := binary.LittleEndian.Uint64(meta[deltaMetaFixed+16*i:])
		epoch := binary.LittleEndian.Uint64(meta[deltaMetaFixed+16*i+8:])
		if shard > uint64(MaxShards) {
			return DeltaFrame{}, fmt.Errorf("codec: delta entry shard %d out of range [0,%d)", shard, shards)
		}
		if err := deltaEntryRule(int(shard), prev, epoch, int(shards), full); err != nil {
			return DeltaFrame{}, err
		}
		prev = int(shard)
		f.Entries = append(f.Entries, DeltaEntry{Shard: int(shard), Epoch: epoch})
	}
	// Read every entry's state bytes, then build replicas: the input
	// pays for the allocations it is about to cause. Sparse states
	// expand one at a time into one dense buffer the frame reuses.
	states := make([]section, count)
	for i := range states {
		tag, payload, err := readDeltaState(r, desc, e)
		if err != nil {
			return DeltaFrame{}, fmt.Errorf("codec: delta entry %d: %w", i, err)
		}
		states[i] = section{tag, payload}
	}
	var dense []byte
	for i, st := range states {
		sk, err := registry.SafeNew(desc.Algo, desc.Shape())
		if err != nil {
			return DeltaFrame{}, err
		}
		payload := st.payload
		if st.tag == secSparse {
			if dense, err = decodeSparse(dense, payload, stateBound(desc, e)); err != nil {
				return DeltaFrame{}, fmt.Errorf("codec: delta entry %d: %w", i, err)
			}
			payload = dense
		}
		err = restoreState(sk, secState, payload)
		if st.tag == secSparse {
			clearSparse(dense, st.payload)
		}
		if err != nil {
			return DeltaFrame{}, fmt.Errorf("codec: delta entry %d: %w", i, err)
		}
		f.Entries[i].Sk = sk
	}
	return f, nil
}

// readDeltaState consumes one delta entry's state section, dense or
// sparse, under the shape's dense state bound.
func readDeltaState(r io.Reader, d Desc, e *registry.Entry) (byte, []byte, error) {
	var h [9]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, fmt.Errorf("codec: reading state section header: %w", err)
	}
	tag, n := h[0], binary.LittleEndian.Uint64(h[1:])
	if tag != secState && tag != secSparse {
		return 0, nil, fmt.Errorf("codec: state section tag %d does not match algorithm %s", tag, e.Name)
	}
	payload, err := readPayload(r, n, stateBound(d, e))
	return tag, payload, err
}

// Sparse state layout: u64 dense length in bytes, u64 pair count, then
// that many (u32 word index, u64 word) pairs.
const (
	sparseFixed = 16
	sparsePair  = 12
)

// sparseState returns the sparse form of a dense state payload: the
// dense length, then the index and bits of every nonzero 8-byte word in
// increasing index order. It reports false when that is no smaller
// than the dense payload.
func sparseState(dense []byte) ([]byte, bool) {
	if len(dense)%8 != 0 || len(dense)/8 > math.MaxUint32 {
		return nil, false
	}
	count := 0
	for w := dense; len(w) >= 8; w = w[8:] {
		v := binary.LittleEndian.Uint64(w)
		count += int((v | -v) >> 63) // 1 when v is nonzero, without a branch
	}
	size := sparseFixed + sparsePair*count
	if size >= len(dense) {
		return nil, false
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(dense)))
	out = binary.LittleEndian.AppendUint64(out, uint64(count))
	for i, w := uint32(0), dense; len(w) >= 8; i, w = i+1, w[8:] {
		if v := binary.LittleEndian.Uint64(w); v != 0 {
			out = binary.LittleEndian.AppendUint32(out, i)
			out = binary.LittleEndian.AppendUint64(out, v)
		}
	}
	return out, true
}

// decodeSparse expands a sparse state payload into the dense payload it
// stands for, written into dst, which must hold only zero bytes, and
// grown when it is too short. The dense length must be whole words
// under bound, the pair count at most that many words and exactly what
// the payload holds, and the word indices strictly increasing inside
// the dense length: all checked before anything is written or
// allocated.
func decodeSparse(dst, p []byte, bound uint64) ([]byte, error) {
	if bound > maxStateBound {
		return nil, fmt.Errorf("codec: state bound %d over the %d ceiling", bound, uint64(maxStateBound))
	}
	if len(p) < sparseFixed {
		return nil, fmt.Errorf("codec: sparse state truncated (%d bytes)", len(p))
	}
	size := binary.LittleEndian.Uint64(p)
	if size > bound {
		return nil, fmt.Errorf("codec: sparse state expands to %d bytes, over the shape bound %d", size, bound)
	}
	if size%8 != 0 {
		return nil, fmt.Errorf("codec: sparse state length %d is not a multiple of 8", size)
	}
	words := size / 8
	count := binary.LittleEndian.Uint64(p[8:])
	if count > words {
		return nil, fmt.Errorf("codec: sparse state names %d words of a %d-word state", count, words)
	}
	if uint64(len(p)) != sparseFixed+sparsePair*count {
		return nil, fmt.Errorf("codec: sparse state is %d bytes for %d words", len(p), count)
	}
	pairs := p[sparseFixed:]
	for k := uint64(0); k < count; k++ {
		i := uint64(binary.LittleEndian.Uint32(pairs[sparsePair*k:]))
		if i >= words {
			return nil, fmt.Errorf("codec: sparse word index %d past the %d-word state", i, words)
		}
		if k > 0 && i <= uint64(binary.LittleEndian.Uint32(pairs[sparsePair*(k-1):])) {
			return nil, fmt.Errorf("codec: sparse word indices must be strictly increasing (%d at pair %d)", i, k)
		}
	}
	if uint64(cap(dst)) < size {
		dst = make([]byte, size)
	}
	dst = dst[:size]
	for pr := pairs; len(pr) > 0; pr = pr[sparsePair:] {
		copy(dst[8*binary.LittleEndian.Uint32(pr):], pr[4:sparsePair])
	}
	return dst, nil
}

// clearSparse zeroes the words of dense that the sparse payload p set,
// so the buffer can take the frame's next entry.
func clearSparse(dense, p []byte) {
	for pr := p[sparseFixed:]; len(pr) > 0; pr = pr[sparsePair:] {
		i := 8 * binary.LittleEndian.Uint32(pr)
		clear(dense[i : i+8])
	}
}
