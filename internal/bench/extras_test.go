package bench

import (
	"math"
	"testing"
)

func TestExtraBOMPStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("OMP decodes take seconds")
	}
	// Decode times are single wall-clock samples, and one stall on
	// either side can flip a comparison of two of them, so the cost
	// claim compares the fastest of several seeded, identical runs.
	const runs = 3
	var exact *Table
	var bo, l2 int
	var boNs, l2Ns []float64
	for run := 0; run < runs; run++ {
		tables := ExtraBOMP(Config{Seed: 1, Depth: 5})
		if len(tables) != 2 {
			t.Fatalf("got %d tables", len(tables))
		}
		exact = tables[0]
		bo, l2 = exact.Col("BOMP"), exact.Col(AlgoL2SR)
		if bo < 0 || l2 < 0 {
			t.Fatal("missing columns")
		}
		for xi := range exact.X {
			if run == 0 {
				boNs, l2Ns = append(boNs, math.Inf(1)), append(l2Ns, math.Inf(1))
			}
			boNs[xi] = min(boNs[xi], exact.QueryNs[xi][bo])
			l2Ns[xi] = min(l2Ns[xi], exact.QueryNs[xi][l2])
		}
	}
	for xi, k := range exact.X {
		if exact.Avg[xi][bo] > 1e-6 {
			t.Errorf("k=%d: BOMP should be exact on biased k-sparse, got %g", k, exact.Avg[xi][bo])
		}
		// §2's cost claim: full OMP decode is orders of magnitude
		// slower than a full hash-sketch recovery.
		if boNs[xi] < 5*l2Ns[xi] {
			t.Errorf("k=%d: fastest BOMP decode %f ns not ≫ fastest l2 recover %f ns", k, boNs[xi], l2Ns[xi])
		}
	}
}

func TestExtraRemark1Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("remark1 runs a DP per sweep point")
	}
	tables := ExtraRemark1(Config{Seed: 1, Depth: 5})
	tb := tables[0]
	one, two := tb.Col("minbeta-err2k"), tb.Col("two-bias-err2")
	// The single-bias tail must grow with the mode gap while the
	// two-bias optimum stays roughly flat.
	first, last := 0, len(tb.X)-1
	if tb.Avg[last][one] < 5*tb.Avg[first][one] {
		t.Errorf("single-bias tail should grow with gap: %f -> %f",
			tb.Avg[first][one], tb.Avg[last][one])
	}
	if tb.Avg[last][two] > 3*tb.Avg[first][two] {
		t.Errorf("two-bias optimum should stay flat: %f -> %f",
			tb.Avg[first][two], tb.Avg[last][two])
	}
	// At the largest gap the gap between the columns is the price of
	// Remark 1's impossibility.
	if tb.Avg[last][one] < 10*tb.Avg[last][two] {
		t.Errorf("expected a wide 1-bias/2-bias gap at gap=%d", tb.X[last])
	}
}

func TestExtraCounterBraidsStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("CB decodes take seconds")
	}
	tables := ExtraCounterBraids(Config{Seed: 1, Depth: 5})
	tb := tables[0]
	cbErr, l2Err := tb.Col("CB avgerr"), tb.Col("l2 avgerr")
	cbQ, l2Q := tb.Col("CB point-query ns"), tb.Col("l2 point-query ns")
	for xi := range tb.X {
		if tb.Avg[xi][cbErr] != 0 {
			t.Errorf("n=%d: CB should decode exactly, got err %f", tb.X[xi], tb.Avg[xi][cbErr])
		}
		if tb.Avg[xi][l2Err] <= 0 {
			t.Errorf("n=%d: l2 error should be positive (approximate)", tb.X[xi])
		}
		// The §2 claim: CB cannot answer a point query without a full
		// decode — orders of magnitude slower.
		if tb.Avg[xi][cbQ] < 100*tb.Avg[xi][l2Q] {
			t.Errorf("n=%d: CB point query %f ns not ≫ l2 %f ns",
				tb.X[xi], tb.Avg[xi][cbQ], tb.Avg[xi][l2Q])
		}
	}
}

func TestExtraDengRafieiStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a few sketch builds")
	}
	tables := ExtraDengRafiei(Config{Scale: 0.02, Seed: 1, Depth: 9})
	tb := tables[0]
	dr, cs := tb.Col(AlgoDeng), tb.Col(AlgoCS)
	l2, cm := tb.Col(AlgoL2SR), tb.Col(AlgoCntMin)
	for xi := range tb.X {
		// §2: Deng-Rafiei ≈ Count-Sketch (within 2× either way)...
		if tb.Avg[xi][dr] > 2*tb.Avg[xi][cs] || tb.Avg[xi][cs] > 2*tb.Avg[xi][dr] {
			t.Errorf("s=%d: DR %f and CS %f should be comparable",
				tb.X[xi], tb.Avg[xi][dr], tb.Avg[xi][cs])
		}
		// ...far better than uncorrected Count-Min...
		if tb.Avg[xi][dr] > tb.Avg[xi][cm]/5 {
			t.Errorf("s=%d: DR %f should be well below Count-Min %f",
				tb.X[xi], tb.Avg[xi][dr], tb.Avg[xi][cm])
		}
		// ...but unable to reach bias-aware quality.
		if tb.Avg[xi][l2] > tb.Avg[xi][dr]/1.5 {
			t.Errorf("s=%d: l2-S/R %f should be clearly below DR %f",
				tb.X[xi], tb.Avg[xi][l2], tb.Avg[xi][dr])
		}
	}
}
