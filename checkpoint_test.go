package repro_test

// Checkpoint/restore property layer at the public API: a restored
// Sharded / Windowed / RangeSketch must answer Query / QueryBatch /
// TopK bit-identically to the live original — not approximately, bit
// for bit, across every linear registry algorithm — and must keep
// ingesting as the original's exact continuation. Plus the wire-level
// contracts: v1 payloads still decode, trailing garbage is a typed
// error, wrong-kind containers are named in the error.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/concurrent"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// linearAlgos is every registry algorithm Sharded/Windowed accept —
// the paper's four bias-aware sketches and four linear baselines.
var linearAlgos = []string{
	"l1sr", "l2sr", "l1mean", "l2mean",
	"countmin", "countmedian", "countsketch", "dengrafiei",
}

func shapeOpts() []repro.Option {
	return []repro.Option{
		repro.WithDim(600), repro.WithWords(32), repro.WithDepth(3), repro.WithSeed(5),
	}
}

// ingestSharded drives a deterministic multi-slot stream through both
// element and batched paths.
func ingestSharded(t *testing.T, s *repro.Sharded, from, to int) {
	t.Helper()
	idx := make([]int, 0, 64)
	deltas := make([]float64, 0, 64)
	for u := from; u < to; u++ {
		if u%3 == 0 {
			s.Update(u%4, (u*u+7)%600, float64(1+u%4))
			continue
		}
		idx = append(idx, (u*13+5)%600)
		deltas = append(deltas, float64(1+u%6))
		if len(idx) == 64 {
			if err := s.UpdateBatch(u%4, idx, deltas); err != nil {
				t.Fatal(err)
			}
			idx, deltas = idx[:0], deltas[:0]
		}
	}
	if len(idx) > 0 {
		if err := s.UpdateBatch(0, idx, deltas); err != nil {
			t.Fatal(err)
		}
	}
}

// identicalSharded asserts bit-identical read behavior across the full
// query surface.
func identicalSharded(t *testing.T, algo string, a, b *repro.Sharded) {
	t.Helper()
	for i := 0; i < 600; i += 7 {
		x, err := a.Query(i)
		if err != nil {
			t.Fatal(err)
		}
		y, err := b.Query(i)
		if err != nil {
			t.Fatal(err)
		}
		if x != y {
			t.Fatalf("%s: query %d: live %v restored %v", algo, i, x, y)
		}
	}
	idx := make([]int, 600)
	for i := range idx {
		idx[i] = i
	}
	xs, ys := make([]float64, 600), make([]float64, 600)
	if err := a.QueryBatch(idx, xs); err != nil {
		t.Fatal(err)
	}
	if err := b.QueryBatch(idx, ys); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatalf("%s: batch query %d: live %v restored %v", algo, i, xs[i], ys[i])
		}
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ba, errA := sa.Bias()
	bb, errB := sb.Bias()
	if (errA == nil) != (errB == nil) || ba != bb {
		t.Fatalf("%s: bias: live (%v,%v) restored (%v,%v)", algo, ba, errA, bb, errB)
	}
	ka, errA := sa.TopK(10)
	kb, errB := sb.TopK(10)
	if (errA == nil) != (errB == nil) || len(ka) != len(kb) {
		t.Fatalf("%s: topk: live (%d,%v) restored (%d,%v)", algo, len(ka), errA, len(kb), errB)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: topk[%d]: live %+v restored %+v", algo, i, ka[i], kb[i])
		}
	}
}

func TestShardedCheckpointRestoreBitIdentical(t *testing.T) {
	for _, algo := range linearAlgos {
		t.Run(algo, func(t *testing.T) {
			live, err := repro.NewSharded(4, algo, shapeOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			ingestSharded(t, live, 0, 5000)
			var buf bytes.Buffer
			if err := live.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := repro.RestoreSharded(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Algo() != live.Algo() || restored.Dim() != live.Dim() ||
				restored.Shards() != live.Shards() || restored.Words() != live.Words() {
				t.Fatalf("identity lost: %s/%d/%d vs %s/%d/%d",
					restored.Algo(), restored.Dim(), restored.Shards(),
					live.Algo(), live.Dim(), live.Shards())
			}
			identicalSharded(t, algo, live, restored)

			// The restored instance is a true continuation: identical
			// further ingestion keeps the two bit-identical.
			ingestSharded(t, live, 5000, 7000)
			ingestSharded(t, restored, 5000, 7000)
			identicalSharded(t, algo, live, restored)

			// And it re-checkpoints to the identical bytes.
			var again, ref bytes.Buffer
			if err := restored.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if err := live.Checkpoint(&ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), ref.Bytes()) {
				t.Fatalf("%s: re-checkpoint diverged (%d vs %d bytes)", algo, again.Len(), ref.Len())
			}
		})
	}
}

// A sharded checkpoint whose shard carries state under epoch 0 passes
// every decode check. The restored Sharded must answer with that state
// folded in, as Merged and Checkpoint do: a snapshot sums every shard,
// whatever its epoch.
func TestShardedRestoreFoldsEpochZeroState(t *testing.T) {
	desc := codec.Desc{Algo: "countmin", N: 100, S: 16, D: 3, Seed: 1}
	e, ok := registry.Lookup(desc.Algo)
	if !ok {
		t.Fatal("countmin not registered")
	}
	src := concurrent.New(2, func() sketch.Sketch { return e.MustNew(desc.Shape()) }, registry.Merge)
	if err := src.RestoreShards(func(i int, sk sketch.Sketch) (uint64, error) {
		if i == 0 {
			sk.Update(7, 4)
		}
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeSharded(&buf, desc, src); err != nil {
		t.Fatal(err)
	}
	restored, err := repro.RestoreSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := restored.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if want := merged.Query(7); got != want || got != 4 {
		t.Fatalf("Query(7) = %v, Merged().Query(7) = %v, want both 4", got, want)
	}
}

// ingestWindowed drives both windows through the same stream with the
// same rotations.
func ingestWindowed(t *testing.T, ws []*repro.Windowed, from, to, rotateEvery int) {
	t.Helper()
	for u := from; u < to; u++ {
		for _, w := range ws {
			if err := w.Update(u%3, (u*u+11)%600, float64(1+u%5)); err != nil {
				t.Fatal(err)
			}
		}
		if u%rotateEvery == rotateEvery-1 {
			for _, w := range ws {
				if err := w.Advance(1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func identicalWindowed(t *testing.T, algo string, a, b *repro.Windowed) {
	t.Helper()
	if a.Live() != b.Live() || a.Panes() != b.Panes() || a.PaneWidth() != b.PaneWidth() {
		t.Fatalf("%s: shape: live %d/%d/%v restored %d/%d/%v",
			algo, a.Live(), a.Panes(), a.PaneWidth(), b.Live(), b.Panes(), b.PaneWidth())
	}
	idx := make([]int, 600)
	for i := range idx {
		idx[i] = i
	}
	xs, ys := make([]float64, 600), make([]float64, 600)
	if err := a.QueryBatch(idx, xs); err != nil {
		t.Fatal(err)
	}
	if err := b.QueryBatch(idx, ys); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatalf("%s: query %d: live %v restored %v", algo, i, xs[i], ys[i])
		}
	}
	ka, errA := a.TopK(8)
	kb, errB := b.TopK(8)
	if (errA == nil) != (errB == nil) || len(ka) != len(kb) {
		t.Fatalf("%s: topk: live (%d,%v) restored (%d,%v)", algo, len(ka), errA, len(kb), errB)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: topk[%d]: live %+v restored %+v", algo, i, ka[i], kb[i])
		}
	}
}

func TestWindowedCheckpointRestoreBitIdentical(t *testing.T) {
	for _, algo := range linearAlgos {
		t.Run(algo, func(t *testing.T) {
			opts := append(shapeOpts(), repro.WithPanes(4))
			live, err := repro.NewWindowed(3, algo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Enough rotations that panes have expired before the
			// checkpoint: the full ring machinery is in the state.
			ingestWindowed(t, []*repro.Windowed{live}, 0, 3500, 500)
			var buf bytes.Buffer
			if err := live.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := repro.RestoreWindowed(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Algo() != live.Algo() || restored.Dim() != live.Dim() {
				t.Fatalf("identity lost: %s/%d vs %s/%d",
					restored.Algo(), restored.Dim(), live.Algo(), live.Dim())
			}
			identicalWindowed(t, algo, live, restored)

			// Continue both through more traffic and rotations —
			// including expiry of panes that predate the checkpoint.
			ingestWindowed(t, []*repro.Windowed{live, restored}, 3500, 6000, 500)
			identicalWindowed(t, algo, live, restored)
		})
	}
}

func TestRangeCheckpointRestoreBitIdentical(t *testing.T) {
	const n = 900
	factory := func(level, size int, seed int64) repro.Sketch {
		if size <= 64 {
			return repro.Exact(size)
		}
		algo := "countsketch"
		if level%2 == 1 {
			algo = "l2sr"
		}
		return repro.MustNew(algo,
			repro.WithDim(size), repro.WithWords(24), repro.WithDepth(3), repro.WithSeed(seed))
	}
	live, err := repro.NewRange(n, factory, 77)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4000; u++ {
		live.Update((u*u+u*29)%n, float64(1+u%7))
	}
	var buf bytes.Buffer
	if err := live.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := repro.RestoreRange(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Dim() != live.Dim() || restored.Levels() != live.Levels() || restored.Words() != live.Words() {
		t.Fatalf("identity lost: %d/%d/%d vs %d/%d/%d",
			restored.Dim(), restored.Levels(), restored.Words(),
			live.Dim(), live.Levels(), live.Words())
	}
	check := func() {
		t.Helper()
		for _, r := range [][2]int{{0, n}, {17, 400}, {100, 101}, {512, 900}, {0, 64}} {
			if a, b := live.RangeSum(r[0], r[1]), restored.RangeSum(r[0], r[1]); a != b {
				t.Fatalf("RangeSum(%d,%d): live %v restored %v", r[0], r[1], a, b)
			}
		}
		for _, hi := range []int{1, 63, 250, 899} {
			if a, b := live.PrefixSum(hi), restored.PrefixSum(hi); a != b {
				t.Fatalf("PrefixSum(%d): live %v restored %v", hi, a, b)
			}
		}
		if a, b := live.Total(), restored.Total(); a != b {
			t.Fatalf("Total: live %v restored %v", a, b)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
			if a, b := live.Quantile(q), restored.Quantile(q); a != b {
				t.Fatalf("Quantile(%v): live %v restored %v", q, a, b)
			}
		}
	}
	check()
	// The restored stack keeps ingesting in lockstep.
	for u := 0; u < 1000; u++ {
		i, d := (u*31+7)%n, float64(2+u%3)
		live.Update(i, d)
		restored.Update(i, d)
	}
	check()
}

// v1 payloads — the format every pre-v2 build wrote — must still
// decode through the new codec, at arbitrary shapes, with query
// equality against a fresh facade twin.
func TestV1PayloadsStillDecode(t *testing.T) {
	for _, algo := range serializableAlgos {
		desc := codec.Desc{Algo: algo, N: 700, S: 48, D: 4, Seed: 21}
		inner := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
		twin, err := repro.New(algo,
			repro.WithDim(desc.N), repro.WithWords(desc.S), repro.WithDepth(desc.D), repro.WithSeed(desc.Seed))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 2500; u++ {
			i, d := (u*u+3)%desc.N, float64(1+u%9)
			inner.Update(i, d)
			twin.Update(i, d)
		}
		var v1 bytes.Buffer
		if err := codec.EncodeV1(&v1, desc, inner); err != nil {
			t.Fatalf("%s: EncodeV1: %v", algo, err)
		}
		loaded, err := repro.Unmarshal(v1.Bytes())
		if err != nil {
			t.Fatalf("%s: v1 payload does not decode: %v", algo, err)
		}
		if loaded.Algo() != twin.Algo() || loaded.Dim() != twin.Dim() || loaded.Words() != twin.Words() {
			t.Fatalf("%s: identity lost across v1 decode", algo)
		}
		for i := 0; i < desc.N; i += 13 {
			if a, b := twin.Query(i), loaded.Query(i); a != b {
				t.Fatalf("%s: query %d: twin %v, v1-loaded %v", algo, i, a, b)
			}
		}
		// A v1 payload re-marshals to v2 and reloads.
		re, err := repro.Marshal(loaded)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", algo, err)
		}
		if !bytes.HasPrefix(re, []byte("BAS2")) {
			t.Fatalf("%s: re-marshal is not v2", algo)
		}
		if _, err := repro.Unmarshal(re); err != nil {
			t.Fatalf("%s: re-marshaled payload does not reload: %v", algo, err)
		}
	}
}

// Trailing garbage after a valid payload is a typed error — for v2 and
// for legacy v1 payloads alike.
func TestUnmarshalRejectsTrailingGarbage(t *testing.T) {
	sk := repro.MustNew("countmin", repro.WithDim(300), repro.WithWords(16), repro.WithDepth(3))
	for i := 0; i < 300; i += 5 {
		sk.Update(i, 2)
	}
	data, err := repro.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{{0}, []byte("x"), bytes.Repeat([]byte{0xAA}, 100), data} {
		bad := append(append([]byte(nil), data...), tail...)
		_, err := repro.Unmarshal(bad)
		if !errors.Is(err, repro.ErrTrailingData) {
			t.Fatalf("%d trailing bytes: got %v, want ErrTrailingData", len(tail), err)
		}
	}
	// The clean payload still loads.
	if _, err := repro.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	// Streams are different: UnmarshalFrom leaves the next frame
	// readable.
	double := append(append([]byte(nil), data...), data...)
	r := bytes.NewReader(double)
	if _, err := repro.UnmarshalFrom(r); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.UnmarshalFrom(r); err != nil {
		t.Fatalf("second frame unreadable: %v", err)
	}
}

// Wrong-container errors must name what the bytes actually hold, and
// every restore entry point must reject the other kinds.
func TestContainerKindMismatchesRejected(t *testing.T) {
	sh, err := repro.NewSharded(2, "countmin", repro.WithDim(100), repro.WithWords(8), repro.WithDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	sh.Update(0, 3, 1)
	var shardedBytes bytes.Buffer
	if err := sh.Checkpoint(&shardedBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Unmarshal(shardedBytes.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "sharded checkpoint") {
		t.Errorf("Decode of sharded checkpoint: %v", err)
	}
	if _, err := repro.RestoreWindowed(bytes.NewReader(shardedBytes.Bytes())); err == nil {
		t.Error("RestoreWindowed accepted a sharded checkpoint")
	}
	if _, err := repro.RestoreRange(bytes.NewReader(shardedBytes.Bytes())); err == nil {
		t.Error("RestoreRange accepted a sharded checkpoint")
	}

	sk := repro.MustNew("countmin", repro.WithDim(100), repro.WithWords(8), repro.WithDepth(2))
	data, err := repro.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RestoreSharded(bytes.NewReader(data)); err == nil {
		t.Error("RestoreSharded accepted single-sketch bytes")
	}
}

// Checkpoints of non-linear and exact single sketches: Marshal still
// refuses exact with the typed error, and cmcu/cmlcu round-trip as
// plain sketches (local persistence needs no linearity).
func TestSerializabilityContractUnchanged(t *testing.T) {
	if _, err := repro.Marshal(repro.Exact(50)); !errors.Is(err, repro.ErrNotSerializable) {
		t.Errorf("Marshal(exact) = %v, want ErrNotSerializable", err)
	}
	for _, algo := range []string{"cmcu", "cmlcu"} {
		sk := repro.MustNew(algo, repro.WithDim(200), repro.WithWords(16), repro.WithDepth(2))
		for i := 0; i < 200; i += 3 {
			sk.Update(i, 1)
		}
		data, err := repro.Marshal(sk)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		loaded, err := repro.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if loaded.Query(3) != sk.Query(3) {
			t.Errorf("%s: query mismatch after round trip", algo)
		}
	}
}
