package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/concurrent"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// serializable is every algorithm the single-sketch formats carry.
var serializable = []string{
	"l1sr", "l2sr", "l1mean", "l2mean", "countmin", "countmedian",
	"countsketch", "cmcu", "cmlcu", "dengrafiei",
}

func ingested(t testing.TB, desc Desc) sketch.Sketch {
	t.Helper()
	sk := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	r := rand.New(rand.NewSource(1))
	for u := 0; u < 30000; u++ {
		sk.Update(r.Intn(desc.N), float64(1+r.Intn(5)))
	}
	return sk
}

// Both format versions must round-trip every serializable algorithm
// with exact query equality.
func TestRoundTripAllSerializable(t *testing.T) {
	encoders := map[string]func(w *bytes.Buffer, d Desc, sk sketch.Sketch) error{
		"v1": func(w *bytes.Buffer, d Desc, sk sketch.Sketch) error { return EncodeV1(w, d, sk) },
		"v2": func(w *bytes.Buffer, d Desc, sk sketch.Sketch) error { return EncodeSketch(w, d, sk) },
	}
	for version, enc := range encoders {
		for _, algo := range serializable {
			t.Run(version+"/"+algo, func(t *testing.T) {
				desc := Desc{Algo: algo, N: 20000, S: 256, D: 7, Seed: 99}
				orig := ingested(t, desc)
				var buf bytes.Buffer
				if err := enc(&buf, desc, orig); err != nil {
					t.Fatalf("encode: %v", err)
				}
				loaded, gotDesc, err := DecodeSketch(&buf)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if gotDesc != desc {
					t.Fatalf("desc round-trip %+v != %+v", gotDesc, desc)
				}
				for i := 0; i < desc.N; i += 97 {
					if a, b := orig.Query(i), loaded.Query(i); a != b {
						t.Fatalf("query %d: %f != %f", i, a, b)
					}
				}
			})
		}
	}
}

// Legend names resolve the same algorithms as canonical names, so a
// stream written under either loads.
func TestRoundTripLegendNames(t *testing.T) {
	for _, algo := range []string{"l2-S/R", "CM", "CS", "CM-CU", "Deng-Rafiei"} {
		desc := Desc{Algo: algo, N: 500, S: 16, D: 3, Seed: 4}
		orig := ingested(t, desc)
		var buf bytes.Buffer
		if err := EncodeSketch(&buf, desc, orig); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		loaded, gotDesc, err := DecodeSketch(&buf)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if gotDesc.Algo != algo {
			t.Errorf("%s: algo rewritten to %q", algo, gotDesc.Algo)
		}
		if loaded.Query(3) != orig.Query(3) {
			t.Errorf("%s: query mismatch", algo)
		}
	}
}

// withFamilyByte returns a copy of a v2 container whose leading
// descriptor section carries one extra hash-family byte — the layout
// older builds wrote for sketches hashed with simple tabulation.
func withFamilyByte(t testing.TB, container []byte) []byte {
	t.Helper()
	if container[9] != secDesc {
		t.Fatalf("first section tag %d, want the descriptor", container[9])
	}
	n := binary.LittleEndian.Uint64(container[10:])
	end := 18 + int(n)
	out := append([]byte(nil), container[:end]...)
	binary.LittleEndian.PutUint64(out[10:], n+1)
	out = append(out, 1)
	return append(out, container[end:]...)
}

// Every sketch hashes its rows with the pairwise family, so a
// descriptor carrying a hash-family byte must fail every decode path
// with ErrHashUnsupported — a pairwise restore would answer queries
// from the wrong buckets.
func TestHashFamilyOnTheWire(t *testing.T) {
	desc := Desc{Algo: "countmin", N: 20000, S: 256, D: 7, Seed: 99}
	sk := ingested(t, desc)

	var plain bytes.Buffer
	if err := EncodeSketch(&plain, desc, sk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSketch(bytes.NewReader(withFamilyByte(t, plain.Bytes()))); !errors.Is(err, ErrHashUnsupported) {
		t.Errorf("sketch container: err = %v, want ErrHashUnsupported", err)
	}

	sh := concurrent.New(2, mkFor(t, desc), registry.Merge)
	var sharded bytes.Buffer
	if err := EncodeSharded(&sharded, desc, sh); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSharded(bytes.NewReader(withFamilyByte(t, sharded.Bytes()))); !errors.Is(err, ErrHashUnsupported) {
		t.Errorf("sharded checkpoint: err = %v, want ErrHashUnsupported", err)
	}

	// Older builds wrote an aligned file layout (descriptor, pad,
	// state); the family byte is refused there too.
	tag, payload, err := captureState(sk)
	if err != nil {
		t.Fatal(err)
	}
	dp := append(descPayload(desc), 1)
	var file bytes.Buffer
	if err := writeContainer(&file, KindSketch, []section{
		{secDesc, dp},
		{secPad, make([]byte, (8-(36+len(dp))%8)%8)},
		{tag, payload},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSketch(bytes.NewReader(file.Bytes())); !errors.Is(err, ErrHashUnsupported) {
		t.Errorf("aligned stream: err = %v, want ErrHashUnsupported", err)
	}

	// The byte is the only difference: without it the same container
	// decodes and answers exactly.
	loaded, got, err := DecodeSketch(&plain)
	if err != nil || got != desc {
		t.Fatalf("control decode: desc %+v err %v", got, err)
	}
	for i := 0; i < desc.N; i += 97 {
		if a, b := sk.Query(i), loaded.Query(i); a != b {
			t.Fatalf("query %d: %f != %f", i, a, b)
		}
	}
}

// Older builds wrote single-sketch checkpoint files with a pad section
// between descriptor and state. The decoder skips a well-formed pad and
// restores the same sketch; a pad that is too long or a section that
// is not a pad where one must be fails.
func TestPaddedSketchContainer(t *testing.T) {
	desc := Desc{Algo: "countsketch", N: 3000, S: 64, D: 5, Seed: 11}
	sk := ingested(t, desc)
	tag, payload, err := captureState(sk)
	if err != nil {
		t.Fatal(err)
	}
	padded := func(padTag byte, pad int) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindSketch, []section{
			{secDesc, descPayload(desc)},
			{padTag, make([]byte, pad)},
			{tag, payload},
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	loaded, got, err := DecodeSketch(bytes.NewReader(padded(secPad, 3)))
	if err != nil || got != desc {
		t.Fatalf("padded container: desc %+v err %v", got, err)
	}
	for i := 0; i < desc.N; i += 37 {
		if a, b := sk.Query(i), loaded.Query(i); a != b {
			t.Fatalf("query %d: %f != %f", i, a, b)
		}
	}
	if _, _, err := DecodeSketch(bytes.NewReader(padded(secPad, maxPad+1))); err == nil {
		t.Error("oversized pad section decoded")
	}
	if _, _, err := DecodeSketch(bytes.NewReader(padded(secNested, 3))); err == nil {
		t.Error("three-section container without a pad decoded")
	}
}

func TestExactNotSerializableStandalone(t *testing.T) {
	sk := bench.Make("exact", 100, 16, 3, 1)
	desc := Desc{Algo: "exact", N: 100, S: 16, D: 3, Seed: 1}
	var buf bytes.Buffer
	if err := EncodeV1(&buf, desc, sk); err == nil || !strings.Contains(err.Error(), "not serializable") {
		t.Errorf("v1: exact should refuse to serialize, got %v", err)
	}
	if err := EncodeSketch(&buf, desc, sk); err == nil || !strings.Contains(err.Error(), "not serializable") {
		t.Errorf("v2: exact should refuse to serialize, got %v", err)
	}
	// A hand-crafted top-level exact container must be rejected on
	// decode too (exact travels only inside composite checkpoints).
	var crafted bytes.Buffer
	if err := encodeSketchContainer(&crafted, desc, sk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSketch(&crafted); err == nil {
		t.Error("top-level exact container should be rejected")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"bad magic":        []byte("NOPE0000"),
		"v1 truncated":     append([]byte(MagicV1), 1, 0, 0),
		"v2 header only":   []byte(MagicV2),
		"v2 kind only":     append([]byte(MagicV2), KindSketch),
		"v2 wrong kind":    append([]byte(MagicV2), 99, 2, 0, 0, 0),
		"v2 zero sections": append([]byte(MagicV2), KindSketch, 0, 0, 0, 0),
	}
	for name, b := range cases {
		if _, _, err := DecodeSketch(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: DecodeSketch should fail", name)
		}
	}
}

func TestDecodeRejectsUnknownAlgo(t *testing.T) {
	desc := Desc{Algo: "countmedian", N: 100, S: 16, D: 3, Seed: 5}
	sk := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	for _, enc := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return EncodeV1(b, desc, sk) },
		func(b *bytes.Buffer) error { return EncodeSketch(b, desc, sk) },
	} {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		// Corrupt the algorithm name (it appears right after its length
		// prefix in both formats; find it by content).
		i := bytes.Index(raw, []byte("countmedian"))
		if i < 0 {
			t.Fatal("name not found in payload")
		}
		raw[i] = 'Z'
		if _, _, err := DecodeSketch(bytes.NewReader(raw)); err == nil {
			t.Error("corrupted algorithm name should fail")
		}
	}
}

func TestTruncatedPayloadDetected(t *testing.T) {
	desc := Desc{Algo: "l2sr", N: 1000, S: 64, D: 3, Seed: 2}
	sk := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	for _, enc := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return EncodeV1(b, desc, sk) },
		func(b *bytes.Buffer) error { return EncodeSketch(b, desc, sk) },
	} {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if _, _, err := DecodeSketch(bytes.NewReader(raw[:len(raw)-4])); err == nil {
			t.Error("truncated payload should fail")
		}
	}
}

// A hostile length prefix far beyond the shape bound must be rejected
// before any allocation it implies; one within the bound but beyond
// the actual input must error on the short read, not OOM.
func TestHostileSectionLengths(t *testing.T) {
	desc := Desc{Algo: "countmin", N: 200, S: 16, D: 3, Seed: 1}
	sk := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, desc, sk); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The state section header sits right after the desc section:
	// magic(4) + kind(1) + nsec(4) + descHdr(9) + descPayload.
	stateHdr := 9 + 9 + (2 + len("countmin") + 32)
	if raw[stateHdr] != secState {
		t.Fatalf("layout drifted: tag %d at %d", raw[stateHdr], stateHdr)
	}
	for _, claim := range []uint64{1 << 62, 1 << 40, uint64(len(raw))} {
		mut := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(mut[stateHdr+1:], claim)
		if _, _, err := DecodeSketch(bytes.NewReader(mut)); err == nil {
			t.Errorf("claimed state length %d should fail", claim)
		}
	}
}

// readPayload must reject over-bound lengths and error on short input
// after at most one chunk of allocation.
func TestReadPayloadBounds(t *testing.T) {
	if _, err := readPayload(bytes.NewReader(nil), 10, 5); err == nil {
		t.Error("over-bound length accepted")
	}
	// Claims 64MB, supplies 3 bytes: must error (and by construction
	// allocate at most one chunk before noticing).
	if _, err := readPayload(bytes.NewReader([]byte{1, 2, 3}), 64<<20, 1<<30); err == nil {
		t.Error("short input accepted")
	}
	// Large payloads that are actually present round-trip.
	big := bytes.Repeat([]byte{7}, 3<<20)
	got, err := readPayload(bytes.NewReader(big), uint64(len(big)), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("chunked read corrupted payload")
	}
}

func TestDescValidate(t *testing.T) {
	ok := Desc{Algo: "l2sr", N: 100, S: 16, D: 3, Seed: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid desc rejected: %v", err)
	}
	bad := []Desc{
		{N: 0, S: 16, D: 3},
		{N: 1 << 27, S: 16, D: 3},
		{N: 100, S: 1, D: 3},
		{N: 100, S: 1 << 23, D: 3},
		{N: 100, S: 16, D: 0},
		{N: 100, S: 16, D: 65},
		{N: 100, S: 1 << 20, D: 32},
		{N: 100, S: 16, D: 3, Seed: -1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: %+v should fail validation", i, d)
		}
	}
}

// DecodeSketch must leave bytes after the container unread — framing
// composes on a stream (the facade's Unmarshal layers strictness on
// top).
func TestDecodeLeavesTrailingBytes(t *testing.T) {
	desc := Desc{Algo: "countmin", N: 100, S: 16, D: 2, Seed: 3}
	sk := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, desc, sk); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("NEXT-FRAME")
	if _, _, err := DecodeSketch(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "NEXT-FRAME" {
		t.Errorf("trailing bytes consumed: %q left", got)
	}
}

// The v1 writer's bytes must match what the pre-v2 facade produced —
// the compatibility contract behind the checked-in v1 golden vectors.
// This locks the layout: magic, u32 name length, name, four u64s, u64
// payload length, payload.
func TestV1LayoutFrozen(t *testing.T) {
	desc := Desc{Algo: "countmin", N: 7, S: 4, D: 1, Seed: 9}
	sk := bench.Make(desc.Algo, desc.N, desc.S, desc.D, desc.Seed)
	var buf bytes.Buffer
	if err := EncodeV1(&buf, desc, sk); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if string(raw[:4]) != MagicV1 {
		t.Fatalf("magic %q", raw[:4])
	}
	if nl := binary.LittleEndian.Uint32(raw[4:]); nl != uint32(len("countmin")) {
		t.Fatalf("name length %d", nl)
	}
	if string(raw[8:16]) != "countmin" {
		t.Fatalf("name %q", raw[8:16])
	}
	nums := raw[16:]
	for i, want := range []uint64{7, 4, 1, 9} {
		if got := binary.LittleEndian.Uint64(nums[8*i:]); got != want {
			t.Fatalf("header field %d = %d, want %d", i, got, want)
		}
	}
}

func TestStateBoundScalesWithShape(t *testing.T) {
	e, _ := registry.Lookup("countmin")
	small := stateBound(Desc{N: 100, S: 16, D: 2}, e)
	large := stateBound(Desc{N: 100, S: 4096, D: 9}, e)
	if small >= large {
		t.Errorf("bound does not scale: %d vs %d", small, large)
	}
	ex, _ := registry.Lookup("exact")
	if b := stateBound(Desc{N: 1000, S: 16, D: 2}, ex); b < 8000 {
		t.Errorf("exact bound %d below vector size", b)
	}
}

func TestChainLen(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {1000, 11},
	} {
		if got := chainLen(tc.n); got != tc.want {
			t.Errorf("chainLen(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestKindNames(t *testing.T) {
	for kind, want := range map[byte]string{
		KindSketch: "sketch", KindSharded: "sharded checkpoint",
		KindWindowed: "windowed checkpoint", KindRange: "range checkpoint",
	} {
		if got := kindName(kind); got != want {
			t.Errorf("kindName(%d) = %q", kind, got)
		}
	}
	if !strings.Contains(kindName(200), "unknown") {
		t.Error("unknown kind not flagged")
	}
}

// Infinities and NaNs in an exact vector must survive the dense
// round-trip bit-for-bit (checkpoints carry whatever the counters
// held).
func TestExactStateRoundTripsSpecialFloats(t *testing.T) {
	sk := bench.Make("exact", 8, 16, 3, 1)
	sk.Update(0, math.Inf(1))
	sk.Update(1, -1.5)
	tag, payload, err := captureState(sk)
	if err != nil {
		t.Fatal(err)
	}
	if tag != secExact {
		t.Fatalf("tag %d", tag)
	}
	fresh := bench.Make("exact", 8, 16, 3, 1)
	if err := restoreState(fresh, tag, payload); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Query(0); !math.IsInf(got, 1) {
		t.Errorf("q0 = %v", got)
	}
	if got := fresh.Query(1); got != -1.5 {
		t.Errorf("q1 = %v", got)
	}
}

// Error paths the happy-path tests never reach: malformed descriptor
// sections, mismatched state tags, nested-framing violations, and
// constructor failures surfaced through the probe.
func TestDecodeErrorPaths(t *testing.T) {
	good := Desc{Algo: "countmin", N: 100, S: 16, D: 2, Seed: 1}
	sk := bench.Make(good.Algo, good.N, good.S, good.D, good.Seed)

	t.Run("desc section too short", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindSketch, []section{{secDesc, []byte{1}}, {secState, nil}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSketch(&buf); err == nil {
			t.Error("1-byte desc accepted")
		}
	})
	t.Run("desc name length lies", func(t *testing.T) {
		p := descPayload(good)
		binary.LittleEndian.PutUint16(p, 200) // name claims 200 bytes
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindSketch, []section{{secDesc, p}, {secState, nil}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSketch(&buf); err == nil {
			t.Error("lying name length accepted")
		}
	})
	t.Run("state tag mismatch", func(t *testing.T) {
		// An exact state section under a hashed algorithm's desc.
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindSketch, []section{
			{secDesc, descPayload(good)},
			{secExact, make([]byte, 8*good.N)},
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSketch(&buf); err == nil {
			t.Error("exact state for hashed algorithm accepted")
		}
	})
	t.Run("exact state wrong length", func(t *testing.T) {
		ex := Desc{Algo: "exact", N: 10, S: 16, D: 2, Seed: 1}
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindSketch, []section{
			{secDesc, descPayload(ex)},
			{secExact, make([]byte, 24)}, // 3 floats for dim 10
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeSketchContainer(&buf); err == nil {
			t.Error("short exact vector accepted")
		}
	})
	t.Run("unexpected section tag", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindSketch, []section{
			{secRangeMeta, nil},
			{secState, nil},
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSketch(&buf); err == nil {
			t.Error("wrong leading section accepted")
		}
	})
	t.Run("wrong section count", func(t *testing.T) {
		var buf bytes.Buffer
		if err := EncodeSketch(&buf, good, sk); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		binary.LittleEndian.PutUint32(raw[5:], 7)
		if _, _, err := DecodeSketch(bytes.NewReader(raw)); err == nil {
			t.Error("wrong section count accepted")
		}
		binary.LittleEndian.PutUint32(raw[5:], maxSections+1)
		if _, _, err := DecodeSketch(bytes.NewReader(raw)); err == nil {
			t.Error("absurd section count accepted")
		}
	})
	t.Run("v1 name too long", func(t *testing.T) {
		raw := append([]byte(MagicV1), 0xff, 0xff, 0, 0)
		if _, _, err := DecodeSketch(bytes.NewReader(raw)); err == nil {
			t.Error("absurd v1 name length accepted")
		}
	})
	t.Run("v1 bad shape", func(t *testing.T) {
		bad := good
		bad.D = 99
		var buf bytes.Buffer
		// EncodeV1 does not validate (the facade constructs only valid
		// shapes); decoding must.
		if err := EncodeV1(&buf, bad, sk); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSketch(&buf); err == nil {
			t.Error("invalid v1 shape accepted")
		}
	})
	t.Run("state payload rejected by sketch", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindSketch, []section{
			{secDesc, descPayload(good)},
			{secState, []byte{1, 2, 3}}, // wrong length for the table
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSketch(&buf); err == nil {
			t.Error("malformed state payload accepted")
		}
	})
}
