package repro

import (
	"fmt"

	"repro/internal/registry"
)

// Merge adds src's state into dst — the coordinator step of the
// distributed model: by linearity, merging site sketches yields the
// sketch of the summed vector. Both sketches must have been built (or
// unmarshaled) with the same algorithm, dimension, words, depth, and
// seed.
//
// Non-linear algorithms (cmcu, cmlcu) return ErrNotLinear: the whole
// point of conservative update is that buckets no longer hold sums, so
// no merge exists. Shape or seed mismatches return ErrIncompatible.
func Merge(dst, src Sketch) error {
	for _, s := range []Sketch{dst, src} {
		if !IsLinear(s.Algo()) {
			return fmt.Errorf("%w: %s", ErrNotLinear, s.Algo())
		}
	}
	if l, ok := dst.(Linear); ok {
		return l.Merge(src)
	}
	return fmt.Errorf("%w: %T", ErrNotLinear, dst)
}

// mergeHandles implements Linear.Merge for every handle flavor.
func mergeHandles(dst *handle, other Sketch) error {
	o, ok := other.(baser)
	if !ok {
		return fmt.Errorf("%w: %T was not built by repro.New", ErrIncompatible, other)
	}
	ob := o.base()
	if ob.entry != dst.entry || dst.desc != ob.desc {
		return fmt.Errorf("%w: %v vs %v", ErrIncompatible, dst, ob)
	}
	return registry.Merge(dst.inner, ob.inner)
}
