package repro_test

// Fuzz layer for the delta-frame decoder behind the distributed
// monitoring fabric: arbitrary bytes must never panic DecodeDelta, and
// any frame it does accept must re-encode and decode back to the same
// frame — otherwise a hostile or corrupted hop could desynchronize the
// aggregation tree.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/registry"
)

// deltaFuzzSeed builds a valid encoded delta frame for the corpus.
func deltaFuzzSeed(f *testing.F, full bool) []byte {
	f.Helper()
	d := codec.Desc{Algo: "l2sr", N: 400, S: 16, D: 2, Seed: 5}
	const shards = 3
	var entries []codec.DeltaEntry
	for sh := 0; sh < shards; sh++ {
		if !full && sh == 1 {
			continue // delta frames carry only changed shards
		}
		sk, err := registry.SafeNew(d.Algo, d.Shape())
		if err != nil {
			f.Fatal(err)
		}
		for u := 0; u < 20+sh; u++ {
			sk.Update((u*7+sh)%d.N, float64(1+u%4))
		}
		entries = append(entries, codec.DeltaEntry{Shard: sh, Epoch: uint64(sh + 1), Sk: sk})
	}
	var buf bytes.Buffer
	if err := codec.EncodeDelta(&buf, codec.DeltaFrame{Desc: d, Full: full, Shards: shards, Entries: entries}); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// deltaFuzzSparseSeed builds a valid delta frame whose one entry saw
// three updates, so its state travels as sparse (index, word) pairs.
func deltaFuzzSparseSeed(f *testing.F) []byte {
	f.Helper()
	d := codec.Desc{Algo: "l1sr", N: 1024, S: 32, D: 3, Seed: 5}
	sk, err := registry.SafeNew(d.Algo, d.Shape())
	if err != nil {
		f.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		sk.Update(u*97, float64(1+u))
	}
	var buf bytes.Buffer
	if err := codec.EncodeDelta(&buf, codec.DeltaFrame{Desc: d, Shards: 2, Entries: []codec.DeltaEntry{
		{Shard: 1, Epoch: 4, Sk: sk},
	}}); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzDecodeDelta(f *testing.F) {
	deltaSeed := deltaFuzzSeed(f, false)
	fullSeed := deltaFuzzSeed(f, true)
	f.Add(deltaSeed)
	f.Add(fullSeed)
	for _, cut := range []int{1, 9, 17, len(deltaSeed) / 2, len(deltaSeed) - 1} {
		if cut < len(deltaSeed) {
			f.Add(deltaSeed[:cut])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("BAS2junk"))
	f.Add(deltaFuzzSparseSeed(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := codec.DecodeDelta(bytes.NewReader(data))
		if err != nil {
			return // rejection is the expected outcome for hostile bytes
		}
		// Anything the decoder accepts must be internally consistent
		// enough to re-encode...
		var buf bytes.Buffer
		if err := codec.EncodeDelta(&buf, fr); err != nil {
			t.Fatalf("accepted frame fails re-encode: %v", err)
		}
		// ...and the re-encoded frame must decode back to the same
		// header, epochs, and bit-identical shard states.
		again, err := codec.DecodeDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if again.Full != fr.Full || again.Shards != fr.Shards || len(again.Entries) != len(fr.Entries) {
			t.Fatalf("round trip changed the frame header: %+v vs %+v", again, fr)
		}
		for k := range fr.Entries {
			a, b := fr.Entries[k], again.Entries[k]
			if a.Shard != b.Shard || a.Epoch != b.Epoch {
				t.Fatalf("entry %d: (%d,%d) became (%d,%d)", k, a.Shard, a.Epoch, b.Shard, b.Epoch)
			}
			for i := 0; i < fr.Desc.N; i += 29 {
				if math.Float64bits(a.Sk.Query(i)) != math.Float64bits(b.Sk.Query(i)) {
					t.Fatalf("entry %d diverged at coordinate %d", k, i)
				}
			}
		}
	})
}
