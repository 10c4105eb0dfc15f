package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/registry"
)

// frameSections splits an encoded v2 container into its sections.
func frameSections(t *testing.T, data []byte) []section {
	t.Helper()
	nsec := binary.LittleEndian.Uint32(data[5:])
	var secs []section
	off := 9
	for i := uint32(0); i < nsec; i++ {
		n := int(binary.LittleEndian.Uint64(data[off+1:]))
		secs = append(secs, section{data[off], data[off+9 : off+9+n]})
		off += 9 + n
	}
	if off != len(data) {
		t.Fatalf("container has %d trailing bytes", len(data)-off)
	}
	return secs
}

// A replica that saw a few updates travels sparse and one that saw many
// travels dense, and every entry decodes to its own state bytes, though
// sparse entries expand through one shared buffer, and re-encodes to
// the same frame.
func TestDeltaSparseAndDenseRoundTrip(t *testing.T) {
	for _, algo := range []string{"l1sr", "l2sr", "countmin", "counterbraids"} {
		t.Run(algo, func(t *testing.T) {
			d := Desc{Algo: algo, N: 4096, S: 64, D: 3, Seed: 5}
			// A sparse entry whose words lie apart from the first one's.
			few := mkReplica(t, d, 0)
			for _, k := range []int{4000, 2345, 1111} {
				few.Update(k, 7)
			}
			f := DeltaFrame{Desc: d, Shards: 3, Entries: []DeltaEntry{
				{Shard: 0, Epoch: 1, Sk: mkReplica(t, d, 6)},
				{Shard: 1, Epoch: 2, Sk: mkReplica(t, d, 4000)},
				{Shard: 2, Epoch: 1, Sk: few},
			}}
			data := encodeDeltaOK(t, f)
			secs := frameSections(t, data)
			if len(secs) != 5 || secs[2].tag != secSparse || secs[3].tag != secState || secs[4].tag != secSparse {
				tags := make([]byte, len(secs))
				for i, s := range secs {
					tags[i] = s.tag
				}
				t.Fatalf("section tags %v, want sparse, dense, sparse entries", tags)
			}
			got, err := DecodeDelta(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			for k, en := range got.Entries {
				want, _ := registry.State(f.Entries[k].Sk)
				have, _ := registry.State(en.Sk)
				if !bytes.Equal(want.MarshalState(), have.MarshalState()) {
					t.Fatalf("entry %d: decoded state differs from the encoded one", k)
				}
			}
			if !bytes.Equal(encodeDeltaOK(t, got), data) {
				t.Fatal("re-encode is not byte-identical")
			}

			// A full frame carries whole states, always dense.
			f.Full = true
			for _, s := range frameSections(t, encodeDeltaOK(t, f))[2:] {
				if s.tag != secState {
					t.Fatalf("full frame entry travels with tag %d, want dense", s.tag)
				}
			}
		})
	}
}

// sparseState and decodeSparse invert each other on payloads of every
// density, and the sparse form is chosen only when it is smaller.
func TestSparseStateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		words := 1 + r.Intn(300)
		dense := make([]byte, 8*words)
		density := r.Float64()
		for i := 0; i < words; i++ {
			if r.Float64() < density {
				binary.LittleEndian.PutUint64(dense[8*i:], r.Uint64()|1)
			}
		}
		sp, ok := sparseState(dense)
		if !ok {
			if nz := nonzeroWords(dense); sparseFixed+sparsePair*nz < len(dense) {
				t.Fatalf("trial %d: %d of %d words nonzero, sparse form refused", trial, nz, words)
			}
			continue
		}
		if len(sp) >= len(dense) {
			t.Fatalf("trial %d: sparse form %d bytes for a %d-byte payload", trial, len(sp), len(dense))
		}
		back, err := decodeSparse(nil, sp, uint64(len(dense)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(back, dense) {
			t.Fatalf("trial %d: expanded payload differs", trial)
		}
	}
	if _, ok := sparseState(make([]byte, 20)); ok {
		t.Error("a payload of 20 bytes is not whole words, yet got a sparse form")
	}
}

func nonzeroWords(b []byte) int {
	n := 0
	for off := 0; off < len(b); off += 8 {
		if binary.LittleEndian.Uint64(b[off:]) != 0 {
			n++
		}
	}
	return n
}

// Every malformed sparse section is an error from DecodeDelta, never a
// panic and never a state.
func TestDecodeSparseHostile(t *testing.T) {
	d := Desc{Algo: "l1sr", N: 4096, S: 64, D: 3, Seed: 5}
	data := encodeDeltaOK(t, DeltaFrame{Desc: d, Shards: 1, Entries: []DeltaEntry{
		{Shard: 0, Epoch: 1, Sk: mkReplica(t, d, 6)},
	}})
	secs := frameSections(t, data)
	sp := secs[2]
	if sp.tag != secSparse {
		t.Fatalf("entry travels with tag %d, want sparse", sp.tag)
	}
	body := len(data) - len(sp.payload) // offset of the sparse payload
	size := binary.LittleEndian.Uint64(sp.payload)
	count := binary.LittleEndian.Uint64(sp.payload[8:])
	if count < 2 {
		t.Fatalf("sparse entry has %d words, want at least 2", count)
	}
	pair := func(k int) int { return body + sparseFixed + sparsePair*k }
	bound := stateBound(d, mustLookup(t, d))

	cases := map[string][]byte{
		"index past the payload": corrupt(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[pair(int(count)-1):], uint32(size/8))
		}),
		"huge index": corrupt(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[pair(int(count)-1):], ^uint32(0))
		}),
		"repeated index": corrupt(data, func(b []byte) {
			copy(b[pair(1):pair(1)+4], b[pair(0):pair(0)+4])
		}),
		"decreasing index": corrupt(data, func(b []byte) {
			i0 := binary.LittleEndian.Uint32(b[pair(0):])
			i1 := binary.LittleEndian.Uint32(b[pair(1):])
			binary.LittleEndian.PutUint32(b[pair(0):], i1)
			binary.LittleEndian.PutUint32(b[pair(1):], i0)
		}),
		"count over the bound": corrupt(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[body+8:], size/8+1)
		}),
		"count over the pairs": corrupt(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[body+8:], count+1)
		}),
		"count under the pairs": corrupt(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[body+8:], count-1)
		}),
		"length not a multiple of 8": corrupt(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[body:], size-4)
		}),
		"length over the shape bound": corrupt(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[body:], bound+8)
		}),
		"length short of the state": corrupt(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[body:], size-8)
		}),
		"truncated fixed part": spliceSection(data, body, sp.payload[:sparseFixed-1]),
		"empty payload":        spliceSection(data, body, nil),
		"truncated pair":       spliceSection(data, body, sp.payload[:len(sp.payload)-3]),
		"unknown state tag": corrupt(data, func(b []byte) {
			b[body-9] = 99
		}),
	}
	for name, in := range cases {
		if _, err := DecodeDelta(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: DecodeDelta accepted a malformed sparse section", name)
		}
	}
	if _, err := decodeSparse(nil, sp.payload, maxStateBound+1); err == nil {
		t.Error("decodeSparse took a bound over the ceiling")
	}
}

// spliceSection replaces the payload of the last section, which starts
// at off, with p and rewrites that section's length.
func spliceSection(data []byte, off int, p []byte) []byte {
	out := append([]byte(nil), data[:off]...)
	binary.LittleEndian.PutUint64(out[off-8:], uint64(len(p)))
	return append(out, p...)
}

func mustLookup(t *testing.T, d Desc) *registry.Entry {
	t.Helper()
	e, err := d.lookup()
	if err != nil {
		t.Fatal(err)
	}
	return e
}
