package repro_test

// Golden wire-format vectors, two generations:
//
//   - testdata/wire/<algo>.golden are *legacy v1* payloads, exactly
//     the bytes the pre-v2 Marshal produced. They freeze the v1 layout
//     (EncodeV1 must keep producing them) and prove the compatibility
//     contract: every one of them must keep decoding through the new
//     codec, forever.
//
//   - testdata/wire/v2/<algo>.golden are the v2 payloads Marshal
//     writes today, plus composite checkpoint vectors
//     (sharded/windowed/range.golden). Any change to the container
//     layout — kinds, section framing, metadata — shows up as a byte
//     diff instead of a silent compatibility break.
//
// After an *intentional* format change, regenerate with
//
//	go test -run TestGolden -update-golden .
//
// and review the diff like any other. v1 files must never change.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/codec"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/wire golden payloads instead of comparing against them")

// goldenShape is the frozen construction every golden file uses —
// changing it invalidates every golden file.
var goldenShape = codec.Desc{N: 512, S: 32, D: 4, Seed: 7}

// goldenSketch builds the fixed sketch behind <algo>.golden: shape and
// stream are frozen.
func goldenSketch(t testing.TB, algo string) repro.Sketch {
	t.Helper()
	sk, err := repro.New(algo,
		repro.WithDim(goldenShape.N), repro.WithWords(goldenShape.S),
		repro.WithDepth(goldenShape.D), repro.WithSeed(goldenShape.Seed))
	if err != nil {
		t.Fatalf("%s: New: %v", algo, err)
	}
	// Deterministic insert-only stream (no RNG: golden bytes must not
	// depend on math/rand internals).
	for u := 0; u < 4096; u++ {
		sk.Update((u*u+29)%512, float64(1+u%9))
	}
	return sk
}

// goldenV1Bytes regenerates the legacy payload for algo: the same
// state as goldenSketch, written by the frozen v1 encoder.
func goldenV1Bytes(t testing.TB, algo string) []byte {
	t.Helper()
	desc := goldenShape
	desc.Algo = algo
	inner := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	for u := 0; u < 4096; u++ {
		inner.Update((u*u+29)%512, float64(1+u%9))
	}
	var buf bytes.Buffer
	if err := codec.EncodeV1(&buf, desc, inner); err != nil {
		t.Fatalf("%s: EncodeV1: %v", algo, err)
	}
	return buf.Bytes()
}

// checkGolden compares (or, with -update-golden, rewrites) one golden
// file.
func checkGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("wire format changed: output differs from %s "+
			"(%d vs %d bytes, first diff at offset %d); if intentional, "+
			"regenerate with -update-golden and bump the format version",
			path, len(data), len(want), firstDiff(data, want))
	}
}

// The legacy v1 encoder must keep producing the checked-in v1 bytes —
// these files were written by the pre-v2 facade and must never change.
func TestGoldenWireFormatV1(t *testing.T) {
	for _, algo := range serializableAlgos {
		t.Run(algo, func(t *testing.T) {
			checkGolden(t, filepath.Join("testdata", "wire", algo+".golden"), goldenV1Bytes(t, algo))
		})
	}
}

// Marshal's v2 output is frozen per algorithm.
func TestGoldenWireFormatV2(t *testing.T) {
	for _, algo := range serializableAlgos {
		t.Run(algo, func(t *testing.T) {
			data, err := repro.Marshal(goldenSketch(t, algo))
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			checkGolden(t, filepath.Join("testdata", "wire", "v2", algo+".golden"), data)
		})
	}
}

// tabulationGoldenAlgos name the frozen v2 payloads an older build
// wrote for table sketches hashed with simple tabulation:
// testdata/wire/v2/<algo>-tabulation.golden. Their descriptors carry a
// trailing hash-family byte and their counters were filled through
// tabulation hashes, so they are fixtures for the rejection path, not
// a layout Marshal still writes (-update-golden leaves them alone).
var tabulationGoldenAlgos = []string{"countmin", "countsketch"}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "wire", "v2", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Every sketch hashes its rows with the pairwise family, so the
// tabulation-hashed vectors must fail every restore path with
// ErrHashUnsupported: no panic, and never a sketch that answers from
// pairwise buckets over tabulation-filled counters.
func TestGoldenWireFormatV2Tabulation(t *testing.T) {
	for _, algo := range tabulationGoldenAlgos {
		t.Run(algo, func(t *testing.T) {
			data := readGolden(t, algo+"-tabulation")
			if sk, err := repro.Unmarshal(data); !errors.Is(err, repro.ErrHashUnsupported) || sk != nil {
				t.Errorf("Unmarshal: sketch %v, err %v; want ErrHashUnsupported", sk, err)
			}
			if sk, err := repro.Decode(bytes.NewReader(data)); !errors.Is(err, repro.ErrHashUnsupported) || sk != nil {
				t.Errorf("Decode: sketch %v, err %v; want ErrHashUnsupported", sk, err)
			}
		})
	}
}

// alignedGolden names testdata/wire/v2/countmin-aligned.golden: the
// sketch behind countmin.golden in the three-section file layout older
// builds wrote for memory-mapped serving (descriptor, a pad section
// that puts the state at an 8-byte file offset, state). Nothing writes
// that layout any more, so the file is a fixture that -update-golden
// leaves alone: checkpoint files already on disk in it must keep
// loading through the stream decoder.
const alignedGolden = "countmin-aligned"

// An aligned checkpoint file loads through Unmarshal and Decode into
// the same sketch as countmin.golden, and re-marshals to exactly its
// bytes.
func TestGoldenAlignedFileLoads(t *testing.T) {
	data, want := readGolden(t, alignedGolden), readGolden(t, "countmin")
	unmarshaled, err := repro.Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	decoded, err := repro.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	ref := goldenSketch(t, "countmin")
	for name, sk := range map[string]repro.Sketch{"Unmarshal": unmarshaled, "Decode": decoded} {
		re, err := repro.Marshal(sk)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if !bytes.Equal(re, want) {
			t.Errorf("%s: re-marshaled aligned file differs from countmin.golden (first diff at offset %d)",
				name, firstDiff(re, want))
		}
		for i := 0; i < goldenShape.N; i += 11 {
			if a, b := ref.Query(i), sk.Query(i); a != b {
				t.Fatalf("%s: query %d: fresh %v, aligned-loaded %v", name, i, a, b)
			}
		}
	}
}

// goldenComposites builds the three frozen checkpoint vectors.
func goldenComposites(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}

	sh, err := repro.NewSharded(3, "l2sr",
		repro.WithDim(256), repro.WithWords(16), repro.WithDepth(3), repro.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2000; u++ {
		sh.Update(u%3, (u*u+11)%256, float64(1+u%5))
	}
	var sb bytes.Buffer
	if err := sh.Checkpoint(&sb); err != nil {
		t.Fatal(err)
	}
	out["sharded.golden"] = sb.Bytes()

	w, err := repro.NewWindowed(2, "countmin",
		repro.WithDim(256), repro.WithWords(16), repro.WithDepth(3), repro.WithSeed(7),
		repro.WithPanes(4))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3000; u++ {
		if err := w.Update(u%2, (u*u+5)%256, float64(1+u%3)); err != nil {
			t.Fatal(err)
		}
		if u%800 == 799 {
			if err := w.Advance(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wb bytes.Buffer
	if err := w.Checkpoint(&wb); err != nil {
		t.Fatal(err)
	}
	out["windowed.golden"] = wb.Bytes()

	rs, err := repro.NewRange(200, func(level, size int, seed int64) repro.Sketch {
		if size <= 16 {
			return repro.Exact(size)
		}
		return repro.MustNew("countsketch",
			repro.WithDim(size), repro.WithWords(16), repro.WithDepth(3), repro.WithSeed(seed))
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2000; u++ {
		rs.Update((u*u+17)%200, float64(1+u%4))
	}
	var rb bytes.Buffer
	if err := rs.Checkpoint(&rb); err != nil {
		t.Fatal(err)
	}
	out["range.golden"] = rb.Bytes()
	return out
}

// Composite checkpoint layouts are frozen too.
func TestGoldenCheckpointFormats(t *testing.T) {
	for name, data := range goldenComposites(t) {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, filepath.Join("testdata", "wire", "v2", name), data)
		})
	}
}

// Golden payloads of both versions must still load and answer queries
// like a freshly built twin — the cross-version compatibility
// contract, not just byte stability.
func TestGoldenWireFormatLoads(t *testing.T) {
	dirs := map[string]string{
		"v1": filepath.Join("testdata", "wire"),
		"v2": filepath.Join("testdata", "wire", "v2"),
	}
	for version, dir := range dirs {
		for _, algo := range serializableAlgos {
			t.Run(version+"/"+algo, func(t *testing.T) {
				data, err := os.ReadFile(filepath.Join(dir, algo+".golden"))
				if err != nil {
					t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
				}
				loaded, err := repro.Unmarshal(data)
				if err != nil {
					t.Fatalf("golden payload does not load: %v", err)
				}
				ref := goldenSketch(t, algo)
				for i := 0; i < 512; i += 11 {
					if a, b := ref.Query(i), loaded.Query(i); a != b {
						t.Fatalf("query %d: fresh %v, golden-loaded %v", i, a, b)
					}
				}
			})
		}
	}
}

// The composite golden vectors must restore into working structures.
func TestGoldenCheckpointsRestore(t *testing.T) {
	read := func(t *testing.T, name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", "wire", "v2", name))
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
		}
		return data
	}
	t.Run("sharded", func(t *testing.T) {
		s, err := repro.RestoreSharded(bytes.NewReader(read(t, "sharded.golden")))
		if err != nil {
			t.Fatal(err)
		}
		if s.Algo() != "l2sr" || s.Shards() != 3 || s.Dim() != 256 {
			t.Fatalf("restored %s/%d/%d", s.Algo(), s.Shards(), s.Dim())
		}
		if _, err := s.Query(11); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("windowed", func(t *testing.T) {
		w, err := repro.RestoreWindowed(bytes.NewReader(read(t, "windowed.golden")))
		if err != nil {
			t.Fatal(err)
		}
		if w.Algo() != "countmin" || w.Panes() != 4 || w.Dim() != 256 {
			t.Fatalf("restored %s/%d/%d", w.Algo(), w.Panes(), w.Dim())
		}
		if _, err := w.Query(5); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("range", func(t *testing.T) {
		rs, err := repro.RestoreRange(bytes.NewReader(read(t, "range.golden")))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Dim() != 200 {
			t.Fatalf("restored dim %d", rs.Dim())
		}
		if total := rs.Total(); total <= 0 {
			t.Fatalf("restored total %v", total)
		}
	})
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Guard against accidentally committing an -update-golden run that
// wrote nothing: every expected golden file must exist in both
// generations.
func TestGoldenFilesComplete(t *testing.T) {
	check := func(dir string, names []string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s unreadable (run with -update-golden to create): %v", dir, err)
		}
		have := map[string]bool{}
		for _, e := range entries {
			have[e.Name()] = true
		}
		for _, name := range names {
			if !have[name] {
				t.Errorf("missing golden file %s/%s", dir, name)
			}
		}
	}
	var algoFiles []string
	for _, algo := range serializableAlgos {
		algoFiles = append(algoFiles, fmt.Sprintf("%s.golden", algo))
	}
	check(filepath.Join("testdata", "wire"), algoFiles)
	v2Files := append(algoFiles, "sharded.golden", "windowed.golden", "range.golden")
	for _, algo := range tabulationGoldenAlgos {
		v2Files = append(v2Files, fmt.Sprintf("%s-tabulation.golden", algo))
	}
	v2Files = append(v2Files, alignedGolden+".golden")
	check(filepath.Join("testdata", "wire", "v2"), v2Files)
}
