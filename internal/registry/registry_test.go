package registry

import (
	"testing"

	"repro/internal/sketch"
	"repro/internal/stream"
)

// paperAlgos are the eight algorithms of the paper's evaluation.
var paperAlgos = []string{
	L1SR, L2SR, CountMin, CountMedian, CountSketch, CMCU, CMLCU, DengRafiei,
}

func TestLookupResolvesCanonicalLegendAndAliases(t *testing.T) {
	cases := map[string]string{
		// canonical names
		"l1sr": L1SR, "l2sr": L2SR, "countmin": CountMin, "exact": Exact,
		// legend names, mixed case
		"l2-S/R": L2SR, "CM": CountMedian, "cs": CountSketch,
		"cm-cu": CMCU, "CML-CU": CMLCU, "Count-Min": CountMin,
		"DENG-RAFIEI": DengRafiei, "Exact": Exact,
		// extra aliases
		"l1-sr": L1SR, "l2s/r": L2SR, "count-median": CountMedian,
		"count-sketch": CountSketch, "count-min": CountMin,
	}
	for name, want := range cases {
		e, ok := Lookup(name)
		if !ok {
			t.Errorf("Lookup(%q) failed", name)
			continue
		}
		if e.Name != want {
			t.Errorf("Lookup(%q) = %s, want %s", name, e.Name, want)
		}
	}
	if _, ok := Lookup("no-such-algorithm"); ok {
		t.Error("Lookup of unknown name should fail")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("Names() has %d entries, want 12: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, want := range append(append([]string{}, paperAlgos...), L1Mean, L2Mean, Exact, CounterBraid) {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() missing %s", want)
		}
	}
}

// SafeNew converts constructor panics into errors — the contract for
// descriptors read off the network.
func TestSafeNewConvertsPanics(t *testing.T) {
	if _, err := SafeNew("nope", Shape{N: 100, S: 16, D: 3, Seed: 1}); err == nil {
		t.Error("unknown algorithm should error")
	}
	bad := map[string]struct {
		algo    string
		n, s, d int
	}{
		"negative dim":   {L2SR, -1, 16, 3},
		"zero rows":      {CountMin, 100, 0, 3}, // baselines use s buckets directly
		"negative depth": {L2SR, 100, 16, -1},
		"dengrafiei s<2": {DengRafiei, 100, 1, 3},
	}
	for name, p := range bad {
		if _, err := SafeNew(p.algo, Shape{N: p.n, S: p.s, D: p.d, Seed: 1}); err == nil {
			t.Errorf("%s: SafeNew should return an error, not panic", name)
		}
	}
	sk, err := SafeNew(L2SR, Shape{N: 1000, S: 64, D: 5, Seed: 1})
	if err != nil {
		t.Fatalf("valid parameters: %v", err)
	}
	if sk.Dim() != 1000 {
		t.Errorf("Dim = %d", sk.Dim())
	}
}

// State must adapt every paper algorithm (they all persist), and
// reject the exact vector (nothing sketched to save).
func TestStateCoversAllPaperAlgorithms(t *testing.T) {
	for _, algo := range paperAlgos {
		sk, err := SafeNew(algo, Shape{N: 5000, S: 64, D: 5, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		st, err := State(sk)
		if err != nil {
			t.Fatalf("%s: State: %v", algo, err)
		}
		sk.Update(7, 3)
		sk.Update(7, 2)
		blob := st.MarshalState()
		fresh, err := SafeNew(algo, Shape{N: 5000, S: 64, D: 5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		fst, err := State(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := fst.UnmarshalState(blob); err != nil {
			t.Fatalf("%s: UnmarshalState: %v", algo, err)
		}
		if a, b := sk.Query(7), fresh.Query(7); a != b {
			t.Errorf("%s: state round trip lost updates: %v != %v", algo, a, b)
		}
		if err := fst.UnmarshalState([]byte{1, 2, 3}); err == nil {
			t.Errorf("%s: truncated state should fail", algo)
		}
	}
	ex, err := SafeNew(Exact, Shape{N: 100, S: 0, D: 0, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := State(ex); err == nil {
		t.Error("State(exact) should report not serializable")
	}
}

// Every registry algorithm carries the batched ingestion capability.
func TestEveryEntryImplementsBatchUpdater(t *testing.T) {
	for _, name := range Names() {
		sk, err := SafeNew(name, Shape{N: 1000, S: 64, D: 5, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := sk.(sketch.BatchUpdater); !ok {
			t.Errorf("%s (%T) does not implement sketch.BatchUpdater", name, sk)
		}
	}
}

func TestMergeDispatch(t *testing.T) {
	a, _ := SafeNew(CountMin, Shape{N: 100, S: 16, D: 3, Seed: 1})
	b, _ := SafeNew(CountMin, Shape{N: 100, S: 16, D: 3, Seed: 1})
	b.Update(5, 4)
	if err := Merge(a, b); err != nil {
		t.Fatalf("Merge(countmin, countmin): %v", err)
	}
	if a.Query(5) != 4 {
		t.Errorf("merge lost mass: Query(5) = %f", a.Query(5))
	}
	cs, _ := SafeNew(CountSketch, Shape{N: 100, S: 16, D: 3, Seed: 1})
	if err := Merge(a, cs); err == nil {
		t.Error("cross-type merge should fail")
	}
	ex1, _ := SafeNew(Exact, Shape{N: 10, S: 0, D: 0, Seed: 0})
	ex2, _ := SafeNew(Exact, Shape{N: 10, S: 0, D: 0, Seed: 0})
	ex2.Update(3, 2)
	if err := Merge(ex1, ex2); err != nil || ex1.Query(3) != 2 {
		t.Errorf("exact merge: err=%v Query(3)=%f", err, ex1.Query(3))
	}
	if _, ok := ex1.(*stream.Exact); !ok {
		t.Errorf("exact entry built %T", ex1)
	}
}
