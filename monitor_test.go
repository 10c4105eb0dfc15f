package repro_test

import (
	"errors"
	"math"
	"testing"

	"repro"
)

// monitorStreams builds deterministic per-site streams with integer
// deltas (so distributed sums are exact) and a skew: site 0 is hot.
func monitorStreams(sites, perSite, dim int) [][]repro.SiteUpdate {
	streams := make([][]repro.SiteUpdate, sites)
	for p := 0; p < sites; p++ {
		n := perSite
		if p == 0 {
			n *= 4
		}
		us := make([]repro.SiteUpdate, n)
		for u := range us {
			us[u] = repro.SiteUpdate{I: (p*131 + u*17) % dim, Delta: float64(1 + (p+u)%5)}
		}
		streams[p] = us
	}
	return streams
}

// The facade contract: Monitor's coordinator answers bit-identically
// to a single sketch of the same configuration fed every update —
// delta or full-state shipping, with churn, observed per round.
func TestMonitorBitIdenticalToSingleSketch(t *testing.T) {
	const dim, sites = 900, 7
	streams := monitorStreams(sites, 300, dim)
	opts := []repro.Option{repro.WithDim(dim), repro.WithWords(32), repro.WithDepth(2), repro.WithSeed(3)}

	single, err := repro.New("l2sr", opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, us := range streams {
		for _, u := range us {
			single.Update(u.I, u.Delta)
		}
	}

	for _, full := range []bool{false, true} {
		cfg := repro.MonitorConfig{
			SyncEvery: 100, FanIn: 3, Shards: 4, FullState: full,
			CheckpointEvery: 2,
			Restarts:        []repro.MonitorRestart{{Round: 3, Site: 1}},
		}
		rounds := 0
		coord, rep, err := repro.Monitor("l2sr", cfg, streams, func(round int, c repro.Sketch) {
			rounds++
			if round != rounds {
				t.Fatalf("onSync round %d out of order", round)
			}
			if c.Algo() != "l2sr" || c.Dim() != dim {
				t.Fatalf("onSync coordinator is %s/%d", c.Algo(), c.Dim())
			}
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < dim; i += 13 {
			if a, b := coord.Query(i), single.Query(i); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("full=%v: Query(%d) = %v, single sketch says %v", full, i, a, b)
			}
		}
		if rep.Rounds != rounds || len(rep.PerRound) != rounds {
			t.Fatalf("report rounds %d / ledger %d, onSync saw %d", rep.Rounds, len(rep.PerRound), rounds)
		}
		if rep.Restarts != 1 {
			t.Fatalf("report restarts = %d", rep.Restarts)
		}
		if rep.BudgetWordsPerRound != sites*rep.SketchWords {
			t.Fatalf("budget %d != sites %d × sketch %d", rep.BudgetWordsPerRound, sites, rep.SketchWords)
		}
		var bytesSum, wordsSum int
		for _, r := range rep.PerRound {
			bytesSum += r.CommBytes
			wordsSum += r.CommWords
		}
		if bytesSum != rep.CommBytes || wordsSum != rep.CommWords {
			t.Fatalf("ledger sums (%d,%d) disagree with totals (%d,%d)",
				bytesSum, wordsSum, rep.CommBytes, rep.CommWords)
		}
	}
}

// Zero config is runnable: defaults fill in, sites come from the
// stream count.
func TestMonitorZeroConfigDefaults(t *testing.T) {
	streams := monitorStreams(3, 50, 200)
	coord, rep, err := repro.Monitor("countmin", repro.MonitorConfig{}, streams, nil,
		repro.WithDim(200), repro.WithWords(16), repro.WithDepth(3), repro.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 1 { // 450 updates max per site < DefaultMonitorSyncEvery
		t.Fatalf("rounds = %d, want 1 with the default sync interval", rep.Rounds)
	}
	single, err := repro.New("countmin",
		repro.WithDim(200), repro.WithWords(16), repro.WithDepth(3), repro.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, us := range streams {
		for _, u := range us {
			single.Update(u.I, u.Delta)
		}
	}
	for i := 0; i < 200; i += 7 {
		if a, b := coord.Query(i), single.Query(i); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Query(%d) = %v, want %v", i, a, b)
		}
	}
}

// Facade error mapping: every failure surfaces as one of repro's own
// typed errors, never an internal sentinel.
func TestMonitorErrors(t *testing.T) {
	streams := monitorStreams(2, 10, 100)
	base := []repro.Option{repro.WithDim(100), repro.WithWords(8), repro.WithDepth(2)}

	if _, _, err := repro.Monitor("no-such-algo", repro.MonitorConfig{}, streams, nil, base...); !errors.Is(err, repro.ErrUnknownAlgorithm) {
		t.Fatalf("unknown algo err = %v", err)
	}
	if _, _, err := repro.Monitor("cmcu", repro.MonitorConfig{}, streams, nil, base...); !errors.Is(err, repro.ErrNotLinear) {
		t.Fatalf("non-linear algo err = %v", err)
	}
	if _, _, err := repro.Monitor("l2sr", repro.MonitorConfig{FanIn: 1}, streams, nil, base...); !errors.Is(err, repro.ErrInvalidOption) {
		t.Fatalf("fan-in 1 err = %v", err)
	}
	if _, _, err := repro.Monitor("l2sr", repro.MonitorConfig{Restarts: []repro.MonitorRestart{{Round: 1, Site: 99}}}, streams, nil, base...); !errors.Is(err, repro.ErrInvalidOption) {
		t.Fatalf("out-of-range restart err = %v", err)
	}
	if _, _, err := repro.Monitor("l2sr", repro.MonitorConfig{}, streams, nil, repro.WithWords(-1)); !errors.Is(err, repro.ErrInvalidOption) {
		t.Fatalf("bad option err = %v", err)
	}
}

// Delta shipping through the facade costs less than the full-state
// baseline on a skewed workload, and the report's budget line matches
// what full-state shipping actually spends.
func TestMonitorDeltaCheaperThanFullState(t *testing.T) {
	const dim, sites = 600, 12
	streams := make([][]repro.SiteUpdate, sites)
	for p := 0; p < sites; p++ {
		n := 20
		if p < 2 {
			n = 800 // two hot sites dominate; cold sites go quiet early
		}
		us := make([]repro.SiteUpdate, n)
		for u := range us {
			us[u] = repro.SiteUpdate{I: (p + u*sites) % dim, Delta: 1}
		}
		streams[p] = us
	}
	cfg := repro.MonitorConfig{SyncEvery: 50, FanIn: 3, Shards: 4}
	_, dRep, err := repro.Monitor("l2sr", cfg, streams, nil,
		repro.WithDim(dim), repro.WithWords(16), repro.WithDepth(1), repro.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg.FullState = true
	_, fRep, err := repro.Monitor("l2sr", cfg, streams, nil,
		repro.WithDim(dim), repro.WithWords(16), repro.WithDepth(1), repro.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if dRep.CommBytes >= fRep.CommBytes || dRep.CommWords >= fRep.CommWords {
		t.Fatalf("delta (%d B, %d w) not cheaper than full state (%d B, %d w)",
			dRep.CommBytes, dRep.CommWords, fRep.CommBytes, fRep.CommWords)
	}
	for _, r := range fRep.PerRound {
		if r.CommWords < fRep.BudgetWordsPerRound && r.ActiveSites == sites {
			t.Fatalf("full-state round %d shipped %d words, below the %d budget",
				r.Round, r.CommWords, fRep.BudgetWordsPerRound)
		}
	}
}
