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

// MarshalState serializes the CM cells and bias-estimator state.
func (l *L1SR) MarshalState() []byte {
	return packState(l.cm.Marshal(), l.est.State())
}

// UnmarshalState restores state captured by MarshalState on a sketch
// built with the same configuration and seed.
func (l *L1SR) UnmarshalState(b []byte) error {
	cells, est, err := unpackState(b)
	if err != nil {
		return err
	}
	if err := l.cm.Unmarshal(cells); err != nil {
		return err
	}
	return l.est.SetState(est)
}

// MarshalState serializes the CS cells and bias-estimator state.
func (l *L2SR) MarshalState() []byte {
	return packState(l.cs.Marshal(), l.est.State())
}

// UnmarshalState restores state captured by MarshalState on a sketch
// built with the same configuration and seed.
func (l *L2SR) UnmarshalState(b []byte) error {
	cells, est, err := unpackState(b)
	if err != nil {
		return err
	}
	if err := l.cs.Unmarshal(cells); err != nil {
		return err
	}
	return l.est.SetState(est)
}

// packState frames a cell payload and an estimator float vector as
// len(cells) | cells | floats.
func packState(cells []byte, est []float64) []byte {
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

func unpackState(b []byte) (cells []byte, est []float64, err error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("core: state too short (%d bytes)", len(b))
	}
	cl := binary.LittleEndian.Uint64(b)
	if uint64(len(b)-8) < cl {
		return nil, nil, fmt.Errorf("core: cell payload truncated")
	}
	cells = b[8 : 8+cl]
	rest := b[8+cl:]
	if len(rest)%8 != 0 {
		return nil, nil, fmt.Errorf("core: estimator payload not a float64 multiple")
	}
	est = make([]float64, len(rest)/8)
	for i := range est {
		est[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return cells, est, nil
}
