package repro_test

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro"
)

// FuzzTopKMatchesRecover builds a small l1sr or l2sr from the fuzz
// input and checks the deviation scans against the full recovery:
// TopK must be the top k of Recover sorted by (|x̂ − β̂| descending,
// index ascending), and Scan every coordinate above the threshold in
// that order — field for field, bit for bit — however many keys the
// median bound skipped. Every key first gets base (one value for all:
// ties everywhere), then the stream adds 3 bytes per update: a 16-bit
// index and a signed delta, with 0x7f standing for a 1e6 outlier.
func FuzzTopKMatchesRecover(f *testing.F) {
	f.Add(false, uint16(3000), uint16(64), uint8(3), uint8(15), uint16(1), int8(1), []byte{1, 2, 3})               // d=4, ties
	f.Add(true, uint16(2500), uint16(128), uint8(8), uint8(4), uint16(2), int8(3), []byte{0, 7, 0x7f, 9, 1, 0x81}) // d=9, outliers
	f.Add(true, uint16(1200), uint16(16), uint8(1), uint8(39), uint16(3), int8(1), []byte{})                       // d=2, all ties
	f.Add(false, uint16(4), uint16(8), uint8(4), uint8(8), uint16(4), int8(-2), []byte{0, 1, 3})                   // k=9 > n=5
	f.Fuzz(func(t *testing.T, l2 bool, dimRaw, wordsRaw uint16, depthRaw, kRaw uint8, seed uint16, base int8, stream []byte) {
		algo := "l1sr"
		if l2 {
			algo = "l2sr"
		}
		n := 1 + int(dimRaw)%5000
		sk, err := repro.New(algo,
			repro.WithDim(n),
			repro.WithWords(4+int(wordsRaw)%512),
			repro.WithDepth(1+int(depthRaw)%12),
			repro.WithSeed(int64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]int, n)
		fill := make([]float64, n)
		for i := range keys {
			keys[i], fill[i] = i, float64(base)
		}
		if err := repro.UpdateBatch(sk, keys, fill); err != nil {
			t.Fatal(err)
		}
		for j := 0; j+3 <= len(stream); j += 3 {
			delta := float64(int8(stream[j+2]))
			if stream[j+2] == 0x7f {
				delta = 1e6
			}
			sk.Update((int(stream[j])<<8|int(stream[j+1]))%n, delta)
		}

		beta, err := repro.Bias(sk)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]repro.Deviator, n)
		for i, est := range repro.Recover(sk) {
			all[i] = repro.Deviator{Index: i, Estimate: est, Deviation: math.Abs(est - beta)}
		}
		slices.SortFunc(all, func(a, b repro.Deviator) int {
			if c := cmp.Compare(b.Deviation, a.Deviation); c != 0 {
				return c
			}
			return a.Index - b.Index
		})

		k := 1 + int(kRaw)%48
		got, err := repro.TopK(sk, k)
		if err != nil {
			t.Fatal(err)
		}
		want := all[:min(k, n)]
		if !sameDeviators(got, want) {
			t.Fatalf("%s n=%d k=%d: TopK\n got %v\nwant %v", algo, n, k, got, want)
		}

		threshold := want[len(want)-1].Deviation // ties the k-th deviation
		above := all[:0:0]
		for _, d := range all {
			if d.Deviation > threshold {
				above = append(above, d)
			}
		}
		scanned, err := repro.Scan(sk, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDeviators(scanned, above) {
			t.Fatalf("%s n=%d threshold=%v: Scan\n got %v\nwant %v", algo, n, threshold, scanned, above)
		}
	})
}

// sameDeviators reports whether two answers agree in every field, bit
// for bit.
func sameDeviators(a, b []repro.Deviator) bool {
	return slices.EqualFunc(a, b, func(x, y repro.Deviator) bool {
		return x.Index == y.Index &&
			math.Float64bits(x.Estimate) == math.Float64bits(y.Estimate) &&
			math.Float64bits(x.Deviation) == math.Float64bits(y.Deviation)
	})
}
