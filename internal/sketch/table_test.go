package sketch

import (
	"math/rand"
	"testing"
)

// The dense counter plane is the table's own d×s rows: the matrix
// round-trips through the wire cell layout with signed values intact,
// and a payload of the wrong length is rejected before any counter
// moves.
func TestDensePlaneContract(t *testing.T) {
	cfg := Config{N: 50, Rows: 4, Depth: 3}
	tb := must(newTable(cfg, rand.New(rand.NewSource(1))))
	tb.addPoint(7, -2.5)
	tb.addPoint(9, 4)
	if tb.words() != 3*4 {
		t.Errorf("words = %d, want 12", tb.words())
	}
	blob := tb.marshalCells()
	if len(blob) != 8*3*4 {
		t.Fatalf("payload %d bytes, want 96", len(blob))
	}
	back := must(newTable(cfg, rand.New(rand.NewSource(1))))
	if err := back.unmarshalCells(blob); err != nil {
		t.Fatal(err)
	}
	for ti, row := range tb.cells {
		for b, v := range row {
			if back.cells[ti][b] != v {
				t.Fatalf("cell (%d,%d) = %v, want %v", ti, b, back.cells[ti][b], v)
			}
		}
	}
	if back.minPoint(7) != tb.minPoint(7) {
		t.Error("restored table answers differently")
	}
	if err := back.unmarshalCells(blob[:8]); err == nil {
		t.Error("short payload should be rejected")
	}
	if back.cells[0][0] != tb.cells[0][0] || back.minPoint(9) != tb.minPoint(9) {
		t.Error("rejected payload moved a counter")
	}
}
