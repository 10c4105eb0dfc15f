package repro_test

// Fuzz layer for the mapped-checkpoint opener: OpenMmap parses an
// attacker-controlled file with manual bounds checks (no intermediate
// allocations, no panic recovery downstream of the mapping), so the
// contract under hostile bytes is strict — reject with an error, never
// panic, never allocate proportionally to claimed (rather than actual)
// sizes. Anything accepted must be a working read-only sketch whose
// re-marshaled bytes reload.

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// mustSketchFileSeed writes a valid aligned checkpoint and returns its
// bytes for the fuzz corpus.
func mustSketchFileSeed(f *testing.F, algo string) []byte {
	f.Helper()
	sk, err := repro.New(algo, repro.WithDim(300), repro.WithWords(16), repro.WithDepth(3), repro.WithSeed(9))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 300; i += 3 {
		sk.Update(i, float64(1+i%7))
	}
	path := filepath.Join(f.TempDir(), "seed.bas2")
	if err := repro.WriteSketchFile(path, sk); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzOpenMmap maps fuzzed bytes as a checkpoint file. The parser sees
// exactly the fuzzer's bytes through the page cache, so every header,
// section length, and alignment decision is exercised against hostile
// input.
func FuzzOpenMmap(f *testing.F) {
	for _, algo := range []string{"countmin", "countsketch", "dengrafiei"} {
		valid := mustSketchFileSeed(f, algo)
		f.Add(valid)
		// Truncations at structurally interesting offsets.
		for _, cut := range []int{1, 4, 9, 14, 36, len(valid) / 2, len(valid) - 1} {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
		// Single-byte corruptions in header, descriptor, and state.
		for _, pos := range []int{0, 4, 5, 10, 20, len(valid) - 8} {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 0xFF
			f.Add(mut)
		}
		// Trailing garbage: the state section must span exactly to EOF.
		f.Add(append(append([]byte(nil), valid...), 0xAB))
	}
	// Aligned files whose descriptor carries a hash-family byte.
	for _, algo := range tabulationGoldenAlgos {
		f.Add(mmapLayout(f, readGolden(f, algo+"-tabulation")))
	}
	f.Add([]byte{})
	f.Add([]byte("BAS2"))
	f.Add([]byte("BAS1\x01\x00\x00\x00\x03"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.bas2")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sk, closeMap, err := repro.OpenMmap(path)
		if err != nil {
			return // rejected without panicking: the contract
		}
		defer func() {
			if err := closeMap(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}()
		if sk == nil {
			t.Fatal("nil sketch with nil error")
		}
		if repro.BackendOf(sk) != repro.BackendMmap {
			t.Fatalf("accepted sketch reports backend %v", repro.BackendOf(sk))
		}
		_ = sk.Query(0)
		re, err := repro.Marshal(sk)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-marshal: %v", err)
		}
		if _, err := repro.Unmarshal(re); err != nil {
			t.Fatalf("re-marshaled checkpoint does not reload: %v", err)
		}
	})
}
