package repro_test

// Backend-equivalence property tests: the counter-plane backends are
// storage choices, not estimator choices, so for any workload the
// answers must be bit-identical across them — dense vs a restored
// mmap checkpoint, dense vs the Counter-Braids-compressed plane below
// its decoding threshold. The constraint surface (insert-only,
// read-only, capability gates) is pinned as typed errors.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/workload"
)

// tableAlgos are the algorithms whose counters live in the shared d×s
// table — the ones with a pluggable plane.
var tableAlgos = []string{"countmin", "countmedian", "countsketch", "cmcu", "cmlcu", "dengrafiei"}

// compressedAlgos is the subset whose updates are plain linear adds,
// the only write pattern a Counter Braids plane can absorb.
var compressedAlgos = []string{"countmin", "countmedian", "dengrafiei"}

const (
	beDim   = 2048
	beWords = 128
	beDepth = 4
)

func newBE(t *testing.T, algo string, opts ...repro.Option) repro.Sketch {
	t.Helper()
	opts = append([]repro.Option{
		repro.WithDim(beDim), repro.WithWords(beWords),
		repro.WithDepth(beDepth), repro.WithSeed(42),
	}, opts...)
	sk, err := repro.New(algo, opts...)
	if err != nil {
		t.Fatalf("New(%s): %v", algo, err)
	}
	return sk
}

// feedInsertOnly drives a deterministic non-negative integer workload
// through the sketch's batched path.
func feedInsertOnly(t *testing.T, sk repro.Sketch, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.4, 1, beDim-1)
	idx := make([]int, 512)
	deltas := make([]float64, 512)
	for round := 0; round < 8; round++ {
		for j := range idx {
			idx[j] = int(zipf.Uint64())
			deltas[j] = float64(1 + r.Intn(4))
		}
		if err := repro.UpdateBatch(sk, idx, deltas); err != nil {
			t.Fatalf("UpdateBatch: %v", err)
		}
	}
}

func TestBackendsMatrix(t *testing.T) {
	wants := map[string][]repro.Backend{
		"countmin":      {repro.BackendDense, repro.BackendCompressed, repro.BackendMmap},
		"countmedian":   {repro.BackendDense, repro.BackendCompressed, repro.BackendMmap},
		"dengrafiei":    {repro.BackendDense, repro.BackendCompressed, repro.BackendMmap},
		"countsketch":   {repro.BackendDense, repro.BackendMmap},
		"cmcu":          {repro.BackendDense, repro.BackendMmap},
		"cmlcu":         {repro.BackendDense, repro.BackendMmap},
		"l1sr":          {repro.BackendDense},
		"l2sr":          {repro.BackendDense},
		"counterbraids": {repro.BackendDense},
		"exact":         {repro.BackendDense},
	}
	for algo, want := range wants {
		got := repro.Backends(algo)
		if len(got) != len(want) {
			t.Errorf("Backends(%s) = %v, want %v", algo, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Backends(%s) = %v, want %v", algo, got, want)
			}
		}
	}
	if repro.Backends("no-such-algo") != nil {
		t.Error("Backends of unknown algorithm should be nil")
	}
}

func TestWithBackendMmapRejectedByNew(t *testing.T) {
	_, err := repro.New("countmin", repro.WithDim(100), repro.WithBackend(repro.BackendMmap))
	if !errors.Is(err, repro.ErrInvalidOption) {
		t.Fatalf("New with BackendMmap: got %v, want ErrInvalidOption", err)
	}
}

func TestCompressedCapabilityGate(t *testing.T) {
	for _, algo := range []string{"countsketch", "cmcu", "cmlcu", "l1sr", "exact"} {
		_, err := repro.New(algo, repro.WithDim(100), repro.WithBackend(repro.BackendCompressed))
		if !errors.Is(err, repro.ErrBackendUnsupported) {
			t.Errorf("New(%s, compressed): got %v, want ErrBackendUnsupported", algo, err)
		}
	}
}

func TestShardedAndWindowedAreDenseOnly(t *testing.T) {
	if _, err := repro.NewSharded(2, "countmin", repro.WithDim(100),
		repro.WithBackend(repro.BackendCompressed)); !errors.Is(err, repro.ErrInvalidOption) {
		t.Errorf("NewSharded compressed: got %v, want ErrInvalidOption", err)
	}
	if _, err := repro.NewWindowed(2, "countmin", repro.WithDim(100),
		repro.WithBackend(repro.BackendCompressed)); !errors.Is(err, repro.ErrInvalidOption) {
		t.Errorf("NewWindowed compressed: got %v, want ErrInvalidOption", err)
	}
}

// The compressed plane stores the same counter matrix the dense plane
// does — below the braid's decoding threshold every cell decodes
// exactly, so point queries are bit-identical to the dense twin built
// from the same seed.
func TestCompressedQueriesBitIdenticalToDense(t *testing.T) {
	for _, algo := range compressedAlgos {
		t.Run(algo, func(t *testing.T) {
			dense := newBE(t, algo)
			comp := newBE(t, algo, repro.WithBackend(repro.BackendCompressed))
			if got := repro.BackendOf(comp); got != repro.BackendCompressed {
				t.Fatalf("BackendOf = %v", got)
			}
			feedInsertOnly(t, dense, 9)
			feedInsertOnly(t, comp, 9)
			dv, cv := repro.Recover(dense), repro.Recover(comp)
			for i := range dv {
				if dv[i] != cv[i] {
					t.Fatalf("coordinate %d: dense %v != compressed %v", i, dv[i], cv[i])
				}
			}
			if comp.Words() >= dense.Words() {
				t.Errorf("compressed plane uses %d words, dense %d — compression should save space",
					comp.Words(), dense.Words())
			}
		})
	}
}

// The compressed plane is insert-only: negative and fractional deltas
// must refuse loudly (typed panic) before any counter moves.
func TestCompressedInsertOnly(t *testing.T) {
	for _, delta := range []float64{-1, 2.5} {
		comp := newBE(t, "countmin", repro.WithBackend(repro.BackendCompressed))
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !errors.Is(err, repro.ErrInsertOnly) {
					t.Errorf("delta %v: recovered %v, want ErrInsertOnly", delta, r)
				}
			}()
			comp.Update(3, delta)
			t.Errorf("delta %v: update was accepted", delta)
		}()
	}
}

// Backend equivalence, mmap flavor: for every table algorithm, a
// checkpoint file served by mmap must answer Query and QueryBatch
// bit-identically to the dense sketch it was written from — and
// re-serializing the mapped sketch must reproduce the dense wire bytes.
func TestMmapQueriesBitIdenticalToDense(t *testing.T) {
	for _, algo := range tableAlgos {
		t.Run(algo, func(t *testing.T) {
			dense := newBE(t, algo)
			feedInsertOnly(t, dense, 17)
			path := filepath.Join(t.TempDir(), "sk.bas2")
			if err := repro.WriteSketchFile(path, dense); err != nil {
				t.Fatalf("WriteSketchFile: %v", err)
			}

			mapped, closeMap, err := repro.OpenMmap(path)
			if err != nil {
				t.Fatalf("OpenMmap: %v", err)
			}
			defer closeMap()
			if got := repro.BackendOf(mapped); got != repro.BackendMmap {
				t.Fatalf("BackendOf = %v", got)
			}
			if mapped.Algo() != dense.Algo() || mapped.Dim() != dense.Dim() {
				t.Fatalf("descriptor mismatch: %s/%d vs %s/%d",
					mapped.Algo(), mapped.Dim(), dense.Algo(), dense.Dim())
			}

			dv, mv := repro.Recover(dense), repro.Recover(mapped)
			for i := range dv {
				if dv[i] != mv[i] {
					t.Fatalf("coordinate %d: dense %v != mmap %v", i, dv[i], mv[i])
				}
			}
			for i := 0; i < beDim; i += 97 {
				if dense.Query(i) != mapped.Query(i) {
					t.Fatalf("Query(%d) disagrees", i)
				}
			}

			db, err := repro.Marshal(dense)
			if err != nil {
				t.Fatalf("Marshal(dense): %v", err)
			}
			mb, err := repro.Marshal(mapped)
			if err != nil {
				t.Fatalf("Marshal(mmap): %v", err)
			}
			if !bytes.Equal(db, mb) {
				t.Error("re-serialized mmap sketch differs from dense wire bytes")
			}
		})
	}
}

// A mapped checkpoint is a read-only serving replica: updates panic
// with the typed read-only error, merges refuse with an error.
func TestMmapIsReadOnly(t *testing.T) {
	dense := newBE(t, "countmin")
	feedInsertOnly(t, dense, 23)
	path := filepath.Join(t.TempDir(), "sk.bas2")
	if err := repro.WriteSketchFile(path, dense); err != nil {
		t.Fatal(err)
	}
	mapped, closeMap, err := repro.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeMap()

	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, repro.ErrReadOnly) {
				t.Errorf("Update on mmap: recovered %v, want ErrReadOnly", r)
			}
		}()
		mapped.Update(1, 1)
		t.Error("Update on mmap sketch was accepted")
	}()

	lin, ok := mapped.(repro.Linear)
	if !ok {
		t.Fatal("mapped countmin should still expose Merge")
	}
	if err := lin.Merge(dense); !errors.Is(err, repro.ErrReadOnly) {
		t.Errorf("Merge into mmap: got %v, want ErrReadOnly", err)
	}
	// The other direction is fine: a mapped sketch is a valid merge
	// source for a dense receiver.
	dl := dense.(repro.Linear)
	if err := dl.Merge(mapped); err != nil {
		t.Errorf("Merge dense <- mmap: %v", err)
	}
}

// OpenMmap must reject what it cannot serve — with errors, never
// panics: missing files, plain (unaligned) checkpoints, truncated
// files, and algorithms without mmap capability.
func TestOpenMmapRejections(t *testing.T) {
	dir := t.TempDir()

	if _, _, err := repro.OpenMmap(filepath.Join(dir, "absent")); err == nil {
		t.Error("missing file should error")
	}

	dense := newBE(t, "countmin")
	feedInsertOnly(t, dense, 5)

	// A plain Marshal stream is a valid checkpoint but not the aligned
	// layout; OpenMmap must refuse rather than serve misaligned floats.
	plain, err := repro.Marshal(dense)
	if err != nil {
		t.Fatal(err)
	}
	plainPath := filepath.Join(dir, "plain.bas2")
	if err := os.WriteFile(plainPath, plain, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repro.OpenMmap(plainPath); err == nil {
		t.Error("unaligned 2-section container should be refused")
	}

	// Truncations of a valid aligned file: every prefix must error.
	alignedPath := filepath.Join(dir, "aligned.bas2")
	if err := repro.WriteSketchFile(alignedPath, dense); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(alignedPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 5, 9, 20, len(full) / 2, len(full) - 1} {
		p := filepath.Join(dir, "trunc.bas2")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := repro.OpenMmap(p); err == nil {
			t.Errorf("truncation to %d bytes should error", cut)
		}
	}

	// An algorithm without mmap capability round-trips as a stream but
	// must be refused by the mapped opener.
	cb, err := repro.New("counterbraids", repro.WithDim(256))
	if err != nil {
		t.Fatal(err)
	}
	cb.Update(3, 7)
	cbPath := filepath.Join(dir, "cb.bas2")
	if err := repro.WriteSketchFile(cbPath, cb); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repro.OpenMmap(cbPath); !errors.Is(err, repro.ErrBackendUnsupported) {
		t.Errorf("OpenMmap(counterbraids): got %v, want ErrBackendUnsupported", err)
	}
}

// DecodeWith restores a checkpoint stream onto a chosen backend; the
// restored answers must match the source regardless of plane.
func TestDecodeWithBackends(t *testing.T) {
	dense := newBE(t, "countmedian")
	feedInsertOnly(t, dense, 31)
	blob, err := repro.Marshal(dense)
	if err != nil {
		t.Fatal(err)
	}

	comp, err := repro.DecodeWith(blob, repro.BackendCompressed)
	if err != nil {
		t.Fatalf("DecodeWith(compressed): %v", err)
	}
	if got := repro.BackendOf(comp); got != repro.BackendCompressed {
		t.Fatalf("BackendOf = %v", got)
	}
	dv, cv := repro.Recover(dense), repro.Recover(comp)
	for i := range dv {
		if dv[i] != cv[i] {
			t.Fatalf("coordinate %d: dense %v != compressed restore %v", i, dv[i], cv[i])
		}
	}

	if _, err := repro.DecodeWith(blob, repro.BackendMmap); err == nil {
		t.Error("DecodeWith(mmap) should refuse: streams have no mappable bytes")
	}

	cs := newBE(t, "countsketch")
	feedInsertOnly(t, cs, 31)
	csBlob, err := repro.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.DecodeWith(csBlob, repro.BackendCompressed); !errors.Is(err, repro.ErrBackendUnsupported) {
		t.Errorf("DecodeWith(countsketch, compressed): got %v, want ErrBackendUnsupported", err)
	}
}

// Counter Braids as a first-class registry algorithm: exact decode,
// linear merge, wire round trip, and the insert-only constraint.
func TestCounterBraidsFacade(t *testing.T) {
	const n = 600
	a, err := repro.New("counterbraids", repro.WithDim(n), repro.WithSeed(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if a.Algo() != "counterbraids" {
		t.Fatalf("Algo = %q", a.Algo())
	}
	b, err := repro.New("CB", repro.WithDim(n), repro.WithSeed(3)) // legend alias
	if err != nil {
		t.Fatal(err)
	}

	want := make([]float64, n)
	r := rand.New(rand.NewSource(8))
	for u := 0; u < 3000; u++ {
		i, d := r.Intn(n), float64(1+r.Intn(3))
		want[i] += d
		if u%2 == 0 {
			a.Update(i, d)
		} else {
			b.Update(i, d)
		}
	}

	// Merge the halves; the braid of the concatenated stream must
	// decode every coordinate exactly.
	al := a.(repro.Linear)
	if err := al.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	got := repro.Recover(a)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coordinate %d: decoded %v, want %v", i, got[i], want[i])
		}
	}

	blob, err := repro.Marshal(a)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := repro.Unmarshal(blob)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for i := 0; i < n; i += 7 {
		if back.Query(i) != want[i] {
			t.Fatalf("restored Query(%d) = %v, want %v", i, back.Query(i), want[i])
		}
	}

	// Mismatched seeds must refuse to merge.
	c, err := repro.New("counterbraids", repro.WithDim(n), repro.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Merge(c); !errors.Is(err, repro.ErrIncompatible) {
		t.Errorf("Merge with different seed: got %v, want ErrIncompatible", err)
	}

	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, repro.ErrInsertOnly) {
				t.Errorf("negative update: recovered %v, want ErrInsertOnly", r)
			}
		}()
		a.Update(0, -1)
		t.Error("negative update was accepted")
	}()
}

// An overloaded braid must fail decode loudly (typed error), and still
// checkpoint losslessly — serialization uses the native braid state,
// not the decoded vector.
func TestCounterBraidsOverloadFailsLoudly(t *testing.T) {
	const n = 400
	sk, err := repro.New("counterbraids", repro.WithDim(n), repro.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	// Saturate every coordinate with large counts: far past the
	// decodable load for a braid sized at 1.5n shallow counters.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		sk.Update(i, float64(1+r.Intn(1<<16)))
	}
	decodeErr := func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err, _ = rec.(error)
			}
		}()
		sk.Query(0)
		return nil
	}()
	if decodeErr == nil {
		t.Skip("braid decoded a saturating workload; threshold not reached on this shape")
	}
	if !errors.Is(decodeErr, repro.ErrDecodeBudget) {
		t.Fatalf("overloaded query: got %v, want ErrDecodeBudget", decodeErr)
	}
	// The braid itself still serializes byte-for-byte.
	if _, err := repro.Marshal(sk); err != nil {
		t.Fatalf("Marshal of overloaded braid: %v", err)
	}
}

// The accuracy harness exercises all algorithms; this pins the zipf
// workload generator used above to integer non-negative values, the
// precondition the compressed-plane tests rely on.
func TestWorkloadIsInsertOnly(t *testing.T) {
	x := (workload.ZipfLike{}).Vector(256, rand.New(rand.NewSource(1)))
	for i, v := range x {
		if v < 0 || v != float64(int64(v)) {
			t.Fatalf("workload coordinate %d = %v is not a non-negative integer", i, v)
		}
	}
}
