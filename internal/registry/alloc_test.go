// AllocsPerRun gates are meaningless under the race detector, which
// adds allocations of its own.
//go:build !race

package registry

import (
	"runtime"
	"testing"
)

// Once a shape's basis exists, a construction by name allocates only
// the replica's counters and estimator state: a fixed number of
// allocations that grows with neither n nor s.
func TestConstructionAllocsFlat(t *testing.T) {
	for _, sh := range []Shape{
		{N: 1 << 12, S: 64, D: 9, Seed: 77},
		{N: 1 << 20, S: 4096, D: 9, Seed: 77},
	} {
		for _, name := range []string{L1SR, L2SR} {
			e, _ := Lookup(name)
			keep := e.MustNew(sh) // builds the basis and holds it alive
			if n := testing.AllocsPerRun(20, func() { e.MustNew(sh) }); n > 40 {
				t.Errorf("%s at n=%d s=%d: %.0f allocations per construction, want at most 40", name, sh.N, sh.S, n)
			}
			runtime.KeepAlive(keep)
		}
	}
}
