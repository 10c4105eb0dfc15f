package repro_test

// Wire-format fuzz layer at the public-API level: arbitrary bytes must
// never panic Unmarshal, and Marshal→Unmarshal→Marshal must be a
// byte-exact fixed point for every serializable algorithm.

import (
	"bytes"
	"errors"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/codec"
)

// serializableAlgos is every registry algorithm the wire format
// carries — all of them except exact.
var serializableAlgos = []string{
	"l1sr", "l2sr", "l1mean", "l2mean", "countmin", "countmedian",
	"countsketch", "cmcu", "cmlcu", "dengrafiei", "counterbraids",
}

// mustMarshalSeed builds a valid wire payload for the fuzz corpus.
func mustMarshalSeed(f *testing.F, algo string) []byte {
	f.Helper()
	sk, err := repro.New(algo, repro.WithDim(300), repro.WithWords(16), repro.WithDepth(3), repro.WithSeed(9))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 300; i += 3 {
		sk.Update(i, float64(1+i%7))
	}
	data, err := repro.Marshal(sk)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// mustMarshalV1Seed builds a legacy v1 payload for the corpus, so the
// fuzzer exercises the backward-compatibility path too.
func mustMarshalV1Seed(f *testing.F, algo string) []byte {
	f.Helper()
	desc := codec.Desc{Algo: algo, N: 300, S: 16, D: 3, Seed: 9}
	sk := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	for i := 0; i < 300; i += 3 {
		sk.Update(i, float64(1+i%7))
	}
	var buf bytes.Buffer
	if err := codec.EncodeV1(&buf, desc, sk); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzUnmarshal feeds arbitrary bytes to the public loader: it must
// reject garbage with an error — never panic — and anything it does
// accept must be a working sketch whose re-marshaled bytes reload.
// Trailing bytes after a valid payload must be rejected (with
// ErrTrailingData), never silently swallowed.
func FuzzUnmarshal(f *testing.F) {
	for _, algo := range []string{"l2sr", "countmin", "cmlcu"} {
		f.Add(mustMarshalSeed(f, algo))
		f.Add(mustMarshalV1Seed(f, algo))
	}
	// Payloads whose descriptor carries a hash-family byte must be
	// rejected, not panic — seeded so that gate stays fuzzed.
	for _, algo := range tabulationGoldenAlgos {
		f.Add(readGolden(f, algo+"-tabulation"))
	}
	f.Add(append(readGolden(f, "countmin-tabulation"), 0x01))
	// A valid payload with trailing garbage: historically accepted,
	// now a typed error — seeded so the boundary stays fuzzed.
	f.Add(append(mustMarshalSeed(f, "countmin"), "trailing-garbage"...))
	f.Add(append(mustMarshalV1Seed(f, "countmin"), 0x00, 0xFF))
	f.Add([]byte{})
	f.Add([]byte("BAS1"))
	f.Add([]byte("BAS2"))
	f.Add([]byte("BAS1\xff\xff\xff\xffgarbage"))
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := repro.Unmarshal(data)
		if err != nil {
			return // rejected without panicking: the contract
		}
		if sk == nil {
			t.Fatal("nil sketch with nil error")
		}
		_ = sk.Query(0)
		re, err := repro.Marshal(sk)
		if err != nil {
			t.Fatalf("accepted payload does not re-marshal: %v", err)
		}
		if _, err := repro.Unmarshal(re); err != nil {
			t.Fatalf("re-marshaled payload does not reload: %v", err)
		}
		// An accepted buffer plus any trailing byte is no longer one
		// payload: Unmarshal must reject it.
		if _, err := repro.Unmarshal(append(append([]byte(nil), data...), 0x5A)); err == nil {
			t.Fatal("payload with trailing byte accepted")
		}
	})
}

// FuzzMarshalRoundTrip drives every serializable algorithm through
// Marshal→Unmarshal→Marshal at fuzzed shapes, seeds, and ingestion
// histories: the reload must answer queries identically and the second
// Marshal must reproduce the first byte for byte.
func FuzzMarshalRoundTrip(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(16), uint8(3), uint16(500))
	f.Add(uint8(4), int64(42), uint16(64), uint8(9), uint16(2000))
	f.Add(uint8(9), int64(7), uint16(8), uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, algoRaw uint8, seed int64, sRaw uint16, dRaw uint8, updRaw uint16) {
		algo := serializableAlgos[int(algoRaw)%len(serializableAlgos)]
		// A fuzzed counterbraids shape can be legitimately overloaded
		// (too much mass for the braid): Query then panics with the
		// documented ErrDecodeBudget instead of answering wrong. The
		// round trip is still exercised up to the query; skip only
		// that documented outcome, re-panic anything else.
		defer func() {
			if v := recover(); v != nil {
				if err, ok := v.(error); ok && errors.Is(err, repro.ErrDecodeBudget) {
					t.Skipf("%s: braid overloaded at fuzzed shape: %v", algo, err)
				}
				panic(v)
			}
		}()
		n := 400
		s := 8 + int(sRaw)%256
		d := 1 + int(dRaw)%10
		skSeed := seed & (1<<63 - 1) // the wire format carries seeds unsigned
		orig, err := repro.New(algo,
			repro.WithDim(n), repro.WithWords(s), repro.WithDepth(d), repro.WithSeed(skSeed))
		if err != nil {
			t.Fatalf("%s: New(n=%d s=%d d=%d seed=%d): %v", algo, n, s, d, skSeed, err)
		}
		updates := int(updRaw) % 3000
		for u := 0; u < updates; u++ {
			// Deterministic insert-only stream (cmcu/cmlcu safe).
			orig.Update((u*u+13)%n, float64(1+u%5))
		}

		data1, err := repro.Marshal(orig)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", algo, err)
		}
		loaded, err := repro.Unmarshal(data1)
		if err != nil {
			t.Fatalf("%s: Unmarshal of own Marshal output: %v", algo, err)
		}
		if loaded.Algo() != orig.Algo() || loaded.Dim() != orig.Dim() || loaded.Words() != orig.Words() {
			t.Fatalf("%s: identity lost across round trip", algo)
		}
		for i := 0; i < n; i += 7 {
			if a, b := orig.Query(i), loaded.Query(i); a != b {
				t.Fatalf("%s: query %d: original %v, reloaded %v", algo, i, a, b)
			}
		}
		data2, err := repro.Marshal(loaded)
		if err != nil {
			t.Fatalf("%s: re-Marshal: %v", algo, err)
		}
		if !bytes.Equal(data1, data2) {
			t.Fatalf("%s: Marshal→Unmarshal→Marshal not byte-identical (%d vs %d bytes)",
				algo, len(data1), len(data2))
		}
	})
}
