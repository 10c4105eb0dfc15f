package codec

import (
	"bytes"
	"testing"

	"repro/internal/bench"
)

// FuzzDecodeSketch feeds arbitrary bytes to the single-sketch loader
// (both versions share the entry point): it must reject garbage with
// an error — never panic, never allocate absurdly.
func FuzzDecodeSketch(f *testing.F) {
	desc := Desc{Algo: "countmin", N: 100, S: 16, D: 3, Seed: 1}
	sk := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	sk.Update(5, 3)
	var v1, v2 bytes.Buffer
	if err := EncodeV1(&v1, desc, sk); err != nil {
		f.Fatal(err)
	}
	if err := EncodeSketch(&v2, desc, sk); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(withFamilyByte(f, v2.Bytes()))
	f.Add([]byte("BAS1garbage"))
	f.Add([]byte("BAS2garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, _, err := DecodeSketch(bytes.NewReader(data))
		if err == nil && sk == nil {
			t.Fatal("nil sketch with nil error")
		}
		if err == nil {
			// A successfully loaded sketch must answer queries.
			_ = sk.Query(0)
		}
	})
}

// FuzzSketchRoundTrip mutates the shape fields and checks that every
// accepted v2 encode/decode round-trips queries exactly.
func FuzzSketchRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(16), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, sRaw uint16, dRaw uint8) {
		s := 8 + int(sRaw)%64
		d := 1 + int(dRaw)%6
		desc := Desc{Algo: "countsketch", N: 200, S: s, D: d, Seed: seed & (1<<63 - 1)}
		orig := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
		for i := 0; i < 200; i++ {
			orig.Update(i, float64(i%11))
		}
		var buf bytes.Buffer
		if err := EncodeSketch(&buf, desc, orig); err != nil {
			t.Fatal(err)
		}
		loaded, gotDesc, err := DecodeSketch(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotDesc != desc {
			t.Fatalf("desc mismatch: %+v vs %+v", gotDesc, desc)
		}
		for i := 0; i < 200; i += 17 {
			if orig.Query(i) != loaded.Query(i) {
				t.Fatalf("query %d mismatch", i)
			}
		}
	})
}
