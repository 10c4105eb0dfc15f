package counterbraids

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file adds the merge and capture/restore surface the compressed
// counter plane (internal/sketch) and the registry entry need. Only
// the counter arrays travel: the hash functions are shared randomness
// both ends reconstruct from the seed, exactly as for the table-based
// sketches.

// ErrShapeMismatch is returned by MergeFrom when the two braids differ
// in configuration or hash seeds.
var ErrShapeMismatch = errors.New("counterbraids: braids differ in shape or seeds")

// ErrBadState is returned by Unmarshal for payloads that do not match
// the braid's configuration or violate its counter-width invariant.
var ErrBadState = errors.New("counterbraids: bad braid state")

// SameShape reports whether two braids share configuration and hash
// seeds — the precondition for an exact merge.
func (b *Braid) SameShape(o *Braid) bool {
	return b.cfg == o.cfg && b.h1.Equal(o.h1) && b.h2.Equal(o.h2)
}

// MergeFrom adds o's braid state into b, exactly. The braid state is a
// deterministic additive function of the per-counter inflow totals
// S_j: c1[j] = S_j mod 2^bits and the carries pushed into layer 2 sum
// to ⌊S_j/2^bits⌋. Summing the stored layer-1 values may overflow the
// counter width once more, so the merge re-applies the carry rule —
// (S_a mod M) + (S_b mod M) carries ⌊(S_a mod M + S_b mod M)/M⌋ into
// the counter's layer-2 set — and then adds the layer-2 arrays. The
// result is bit-identical to a braid that ingested both streams.
func (b *Braid) MergeFrom(o *Braid) error {
	if !b.SameShape(o) {
		return ErrShapeMismatch
	}
	for j := range b.c1 {
		sum := b.c1[j] + o.c1[j]
		b.c1[j] = sum & b.cap1
		if carry := sum >> uint(b.cfg.Layer1Bits); carry > 0 {
			for u := 0; u < b.cfg.D; u++ {
				b.c2[b.h2[u].Hash(uint64(j))] += carry
			}
		}
	}
	for k := range b.c2 {
		b.c2[k] += o.c2[k]
	}
	return nil
}

// Reset zeroes both counter layers, keeping the configuration and hash
// functions. Used when restoring a braid from captured state.
func (b *Braid) Reset() {
	for j := range b.c1 {
		b.c1[j] = 0
	}
	for k := range b.c2 {
		b.c2[k] = 0
	}
}

// Marshal serializes the braid counters: two u64 LE lengths, then the
// layer-1 and layer-2 arrays as u64 LE values.
func (b *Braid) Marshal() []byte {
	buf := make([]byte, 16+8*(len(b.c1)+len(b.c2)))
	binary.LittleEndian.PutUint64(buf, uint64(len(b.c1)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(b.c2)))
	off := 16
	for _, v := range b.c1 {
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
	}
	for _, v := range b.c2 {
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
	}
	return buf
}

// Unmarshal restores counters captured by Marshal on a braid built
// with the same configuration and seed. Layer-1 values beyond the
// counter ceiling are rejected: they cannot have been produced by
// Update, and accepting them would silently corrupt decode.
func (b *Braid) Unmarshal(buf []byte) error {
	if len(buf) < 16 {
		return fmt.Errorf("%w: payload %d bytes, want at least 16", ErrBadState, len(buf))
	}
	n1 := binary.LittleEndian.Uint64(buf)
	n2 := binary.LittleEndian.Uint64(buf[8:])
	if n1 != uint64(len(b.c1)) || n2 != uint64(len(b.c2)) {
		return fmt.Errorf("%w: layer sizes %d/%d, want %d/%d", ErrBadState, n1, n2, len(b.c1), len(b.c2))
	}
	if uint64(len(buf)) != 16+8*(n1+n2) {
		return fmt.Errorf("%w: payload %d bytes, want %d", ErrBadState, len(buf), 16+8*(n1+n2))
	}
	off := 16
	for j := range b.c1 {
		v := binary.LittleEndian.Uint64(buf[off:])
		if v > b.cap1 {
			return fmt.Errorf("%w: layer-1 counter %d exceeds %d-bit ceiling", ErrBadState, v, b.cfg.Layer1Bits)
		}
		b.c1[j] = v
		off += 8
	}
	for k := range b.c2 {
		b.c2[k] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	return nil
}
