package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file provides state capture/restore for the bias-aware
// sketches, used by internal/codec to ship sketches between
// processes. Only data-dependent state travels: hash functions,
// sampled positions, and column sums are shared randomness that both
// ends reconstruct from the configuration and seed (exactly the
// paper's distributed protocol, §5.5 footnote 4).

// MarshalState serializes the row cells and bias-estimator state as
// len(cells) | cells | estimator floats.
func (l *SR) MarshalState() []byte {
	cells, est := l.tab.Marshal(), l.est.State()
	out := make([]byte, 8+len(cells)+8*len(est))
	binary.LittleEndian.PutUint64(out, uint64(len(cells)))
	copy(out[8:], cells)
	off := 8 + len(cells)
	for _, v := range est {
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
		off += 8
	}
	return out
}

// UnmarshalState restores state captured by MarshalState on a sketch
// built with the same scheme, configuration and seed.
func (l *SR) UnmarshalState(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("core: state too short (%d bytes)", len(b))
	}
	cl := binary.LittleEndian.Uint64(b)
	if uint64(len(b)-8) < cl {
		return fmt.Errorf("core: cell payload truncated")
	}
	rest := b[8+cl:]
	if len(rest)%8 != 0 {
		return fmt.Errorf("core: estimator payload not a float64 multiple")
	}
	est := make([]float64, len(rest)/8)
	for i := range est {
		est[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	if err := l.tab.Unmarshal(b[8 : 8+cl]); err != nil {
		return err
	}
	return l.est.SetState(est)
}
