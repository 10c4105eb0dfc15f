package distributed

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// split partitions a global vector into `sites` local vectors whose
// sum is the original, deterministically spreading each coordinate's
// mass.
func split(global []float64, sites int) [][]float64 {
	if sites <= 0 {
		panic("distributed: sites must be positive")
	}
	parts := make([][]float64, sites)
	for p := range parts {
		parts[p] = make([]float64, len(global))
	}
	for i, v := range global {
		// Deterministic uneven split: site (i mod sites) gets the
		// remainder so mass distribution varies across sites.
		share := v / float64(sites)
		rem := i % sites
		var assigned float64
		for p := range parts {
			if p == rem {
				continue
			}
			parts[p][i] = share
			assigned += share
		}
		parts[rem][i] = v - assigned
	}
	return parts
}

func TestSplitConservesMass(t *testing.T) {
	global := []float64{10, 0, -4, 7.5, 3}
	parts := split(global, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	for i := range global {
		var sum float64
		for _, p := range parts {
			sum += p[i]
		}
		if math.Abs(sum-global[i]) > 1e-12 {
			t.Errorf("coordinate %d: split sum %f != %f", i, sum, global[i])
		}
	}
}

func TestSplitPanicsOnBadSites(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	split([]float64{1}, 0)
}

// Regression for the split remainder bug: the comment always promised
// site (i mod sites) the remainder, but the loop handed it to the last
// site for every coordinate. With an inexactly divisible value the
// remainder share differs from the plain share in the last bits, so
// the rotation is observable per coordinate.
func TestSplitRotatesRemainder(t *testing.T) {
	const sites = 3
	global := []float64{1, 1, 1, 1} // 1/3 is inexact: remainder share ≠ plain share
	parts := split(global, sites)
	share := 1.0 / 3
	remShare := 1 - 2*share
	if remShare == share {
		t.Fatal("test needs an inexact division to observe rotation")
	}
	for i := range global {
		rem := i % sites
		for p := 0; p < sites; p++ {
			want := share
			if p == rem {
				want = remShare
			}
			if parts[p][i] != want {
				t.Errorf("coordinate %d site %d = %v, want %v (remainder belongs to site %d)",
					i, p, parts[p][i], want, rem)
			}
		}
	}
	// The buggy split gave every remainder to the last site, leaving
	// per-site masses structurally identical. Rotated, site 0 holds two
	// remainder shares of the four coordinates and site 2 only one.
	mass := func(p int) (m float64) {
		for _, v := range parts[p] {
			m += v
		}
		return m
	}
	if mass(0) == mass(2) {
		t.Errorf("per-site mass identical (%v): remainder is not rotating", mass(0))
	}
}

func TestTreeConfigValidate(t *testing.T) {
	ok := TreeConfig{Sites: 8, SyncEvery: 10, FanIn: 2, Shards: 4}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mut := range map[string]func(*TreeConfig){
		"zero sites":        func(c *TreeConfig) { c.Sites = 0 },
		"zero sync":         func(c *TreeConfig) { c.SyncEvery = 0 },
		"fan-in one":        func(c *TreeConfig) { c.FanIn = 1 },
		"zero shards":       func(c *TreeConfig) { c.Shards = 0 },
		"huge shards":       func(c *TreeConfig) { c.Shards = codec.MaxShards + 1 },
		"unknown mode":      func(c *TreeConfig) { c.Mode = ShipMode(7) },
		"negative ckpt":     func(c *TreeConfig) { c.CheckpointEvery = -1 },
		"restart bad site":  func(c *TreeConfig) { c.Restarts = []Restart{{Round: 1, Site: 8}} },
		"restart neg site":  func(c *TreeConfig) { c.Restarts = []Restart{{Round: 1, Site: -1}} },
		"restart bad round": func(c *TreeConfig) { c.Restarts = []Restart{{Round: 0, Site: 0}} },
	} {
		c := ok
		mut(&c)
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

func TestMonitorTreeArgumentErrors(t *testing.T) {
	desc := codec.Desc{Algo: "l2sr", N: 100, S: 16, D: 1, Seed: 5}
	cfg := TreeConfig{Sites: 2, SyncEvery: 5, FanIn: 2, Shards: 2}
	if _, _, err := MonitorTree(TreeConfig{}, desc, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad config: %v", err)
	}
	if _, _, err := MonitorTree(cfg, desc, make([][]stream.Update, 3), nil); !errors.Is(err, ErrNoSites) {
		t.Errorf("stream/site mismatch: %v", err)
	}
}

// A monitoring run refuses a missing site set, an algorithm the
// registry does not know, and a shape it cannot build, before any
// site ingests.
func TestRunErrors(t *testing.T) {
	desc := codec.Desc{Algo: "countmedian", N: 10, S: 8, D: 2, Seed: 1}
	cfg := TreeConfig{Sites: 2, SyncEvery: 5, FanIn: 2, Shards: 2}
	streams := [][]stream.Update{{{I: 1, Delta: 1}}, {{I: 2, Delta: 1}}}
	if _, _, err := MonitorTree(cfg, desc, nil, nil); !errors.Is(err, ErrNoSites) {
		t.Errorf("no sites: %v", err)
	}
	bogus := desc
	bogus.Algo = "no-such-algo"
	if _, _, err := MonitorTree(cfg, bogus, streams, nil); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: %v", err)
	}
	empty := desc
	empty.S = 0
	if _, _, err := MonitorTree(cfg, empty, streams, nil); err == nil {
		t.Error("a shape the registry cannot build should error")
	}
}

// Non-linear algorithms cannot participate in the distributed model at
// all — the site sketches have no meaningful sum — and exact would
// ship the raw vector, defeating the sketch. Both are rejected up
// front.
func TestRunRejectsUnshippableAlgorithms(t *testing.T) {
	cfg := TreeConfig{Sites: 2, SyncEvery: 5, FanIn: 2, Shards: 2}
	streams := [][]stream.Update{{{I: 1, Delta: 1}}, {{I: 2, Delta: 1}}}
	for _, algo := range []string{"cmcu", "cmlcu", "exact"} {
		desc := codec.Desc{Algo: algo, N: 10, S: 8, D: 2, Seed: 1}
		if _, _, err := MonitorTree(cfg, desc, streams, nil); !errors.Is(err, ErrNotShippable) {
			t.Errorf("%s: MonitorTree should refuse with ErrNotShippable, got %v", algo, err)
		}
	}
}

// Distributed recovery must equal centralized sketching of the global
// vector, for the classical and the bias-aware sketches: each site
// streams its share of the vector, and every hop to the coordinator
// goes through encoded bytes. The shares are inexact fractions, so
// this checks agreement to rounding, not bit identity.
func TestDistributedEqualsCentralized(t *testing.T) {
	const n, sites = 3000, 5
	r := rand.New(rand.NewSource(2))
	global := make([]float64, n)
	for i := range global {
		global[i] = math.Round(r.NormFloat64()*10 + 80)
	}
	streams := make([][]stream.Update, sites)
	for p, part := range split(global, sites) {
		for i, v := range part {
			if v != 0 {
				streams[p] = append(streams[p], stream.Update{I: i, Delta: v})
			}
		}
	}
	// One shard and a single-level tree: each round ships at most one
	// sketch per site, the paper's budget of sites × sketch size.
	cfg := TreeConfig{Sites: sites, SyncEvery: 500, FanIn: sites, Shards: 1}
	monitor := func(t *testing.T, desc codec.Desc) (merged, central sketch.Sketch, st MonitorStats) {
		t.Helper()
		merged, st, err := MonitorTree(cfg, desc, streams, nil)
		if err != nil {
			t.Fatal(err)
		}
		central, err = registry.SafeNew(desc.Algo, desc.Shape())
		if err != nil {
			t.Fatal(err)
		}
		if err := sketch.SketchVector(central, global); err != nil {
			t.Fatal(err)
		}
		return merged, central, st
	}

	for _, tc := range []struct {
		name string
		desc codec.Desc
	}{
		{"countsketch", codec.Desc{Algo: "countsketch", N: n, S: 128, D: 8, Seed: 3}},
		{"l2sr", codec.Desc{Algo: "l2sr", N: n, S: 128, D: 2, Seed: 4}},
		{"l1sr", codec.Desc{Algo: "l1sr", N: n, S: 128, D: 2, Seed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			merged, central, st := monitor(t, tc.desc)
			for i := 0; i < n; i += 61 {
				if a, b := central.Query(i), merged.Query(i); math.Abs(a-b) > 1e-6 {
					t.Fatalf("query %d: centralized %f distributed %f", i, a, b)
				}
			}
			var updates int
			for _, s := range streams {
				updates += len(s)
			}
			if st.UpdatesApplied != updates || st.SketchWords != central.Words() ||
				st.BudgetWordsPerRound != sites*central.Words() {
				t.Errorf("bad stats %+v", st)
			}
			if st.CommBytes <= 0 {
				t.Errorf("no bytes shipped: %+v", st)
			}
			for _, rs := range st.PerRound {
				if rs.CommWords > st.BudgetWordsPerRound {
					t.Errorf("round %d shipped %d words, over the budget %d",
						rs.Round, rs.CommWords, st.BudgetWordsPerRound)
				}
			}
			if st.BudgetWordsPerRound >= sites*n {
				t.Errorf("sketching should compress: %d words per round for %d raw coordinates",
					st.BudgetWordsPerRound, sites*n)
			}
		})
	}

	t.Run("l2sr bias survives shipping", func(t *testing.T) {
		merged, central, _ := monitor(t, codec.Desc{Algo: "l2sr", N: n, S: 128, D: 2, Seed: 4})
		cb := central.(interface{ Bias() float64 }).Bias()
		mb := merged.(interface{ Bias() float64 }).Bias()
		if math.Abs(cb-mb) > 1e-9 {
			t.Fatalf("bias: centralized %f distributed %f", cb, mb)
		}
	})
}

func mkStreams(sites, perSite, n int, seed int64) ([][]stream.Update, []float64) {
	r := rand.New(rand.NewSource(seed))
	streams := make([][]stream.Update, sites)
	global := make([]float64, n)
	for p := range streams {
		us := make([]stream.Update, perSite)
		for u := range us {
			us[u] = stream.Update{I: r.Intn(n), Delta: float64(1 + r.Intn(4))}
			global[us[u].I] += us[u].Delta
		}
		streams[p] = us
	}
	return streams, global
}

// sampleBits fingerprints a coordinator: the exact bit patterns of a
// spread of point queries.
func sampleBits(sk sketch.Sketch, n int) []uint64 {
	var bits []uint64
	for i := 0; i < n; i += 17 {
		bits = append(bits, math.Float64bits(sk.Query(i)))
	}
	return bits
}

// The fabric's headline correctness property: for every linear
// shippable algorithm, the delta-shipped coordinator answers
// bit-identically to the full-state-shipped one and to a single
// sketch fed the union of the streams —
// including runs with mid-stream churn. Integer update deltas make
// every counter an exactly represented float64 sum, so association
// order cannot perturb a single bit.
func TestTreeBitIdenticalAcrossShippingModes(t *testing.T) {
	const n, sites, perSite, syncEvery = 800, 9, 600, 100
	streams, global := mkStreams(sites, perSite, n, 21)
	churn := []Restart{{Round: 2, Site: 1}, {Round: 4, Site: 7}}

	for _, algo := range []string{
		"l1sr", "l2sr", "l1mean", "l2mean",
		"countmedian", "countsketch", "countmin", "dengrafiei", "counterbraids",
	} {
		t.Run(algo, func(t *testing.T) {
			desc := codec.Desc{Algo: algo, N: n, S: 32, D: 2, Seed: 9}
			base := TreeConfig{
				Sites: sites, SyncEvery: syncEvery, FanIn: 3, Shards: 4,
				CheckpointEvery: 2, Restarts: churn,
			}

			perRound := map[ShipMode][][]uint64{}
			run := func(mode ShipMode) sketch.Sketch {
				cfg := base
				cfg.Mode = mode
				coord, st, err := MonitorTree(cfg, desc, streams, func(round int, c sketch.Sketch) {
					perRound[mode] = append(perRound[mode], sampleBits(c, n))
				})
				if err != nil {
					t.Fatalf("mode %d: %v", mode, err)
				}
				if st.Restarts != len(churn) {
					t.Fatalf("mode %d: %d restarts applied, want %d", mode, st.Restarts, len(churn))
				}
				return coord
			}
			delta := run(ShipDelta)
			full := run(ShipFull)

			// Same churn schedule → the coordinator sees identical
			// per-site prefixes every round, so every round must agree
			// bit for bit, not just the final state.
			if len(perRound[ShipDelta]) != len(perRound[ShipFull]) {
				t.Fatalf("round counts diverge: delta %d, full %d",
					len(perRound[ShipDelta]), len(perRound[ShipFull]))
			}
			for r := range perRound[ShipDelta] {
				for k := range perRound[ShipDelta][r] {
					if perRound[ShipDelta][r][k] != perRound[ShipFull][r][k] {
						t.Fatalf("round %d sample %d: delta and full shipping disagree", r+1, k)
					}
				}
			}

			single, err := registry.SafeNew(desc.Algo, desc.Shape())
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range global {
				if v != 0 {
					single.Update(i, v)
				}
			}
			db, fb, ib := sampleBits(delta, n), sampleBits(full, n), sampleBits(single, n)
			for k := range db {
				if db[k] != fb[k] || db[k] != ib[k] {
					t.Fatalf("sample %d: delta %x full %x single %x", k, db[k], fb[k], ib[k])
				}
			}
		})
	}
}

// uniformStreams gives every site perSite updates of delta 1–4 on keys
// spread uniformly over [0, n).
func uniformStreams(sites, perSite, n int, seed int64) [][]stream.Update {
	r := rand.New(rand.NewSource(seed))
	streams := make([][]stream.Update, sites)
	for p := range streams {
		streams[p] = make([]stream.Update, perSite)
		for u := range streams[p] {
			streams[p][u] = stream.Update{I: r.Intn(n), Delta: float64(1 + r.Intn(4))}
		}
	}
	return streams
}

// Delta frames carry each shard's change, not its state: on a uniform
// workload where every shard of every site changes every round, delta
// shipping costs at most a third of the bytes of full-state shipping
// in every round, and every round's coordinator answers bit for bit
// alike in the two modes.
func TestTreeDeltaShipsChangesOnUniformWorkload(t *testing.T) {
	const n, sites, syncEvery, rounds = 1 << 14, 16, 64, 6
	streams := uniformStreams(sites, syncEvery*rounds, n, 61)
	for _, algo := range []string{"l1sr", "l2sr"} {
		t.Run(algo, func(t *testing.T) {
			desc := codec.Desc{Algo: algo, N: n, S: 256, D: 3, Seed: 12}
			perRound := map[ShipMode][][]uint64{}
			stats := map[ShipMode]MonitorStats{}
			for _, mode := range []ShipMode{ShipDelta, ShipFull} {
				cfg := TreeConfig{Sites: sites, SyncEvery: syncEvery, FanIn: 4, Shards: 4, Mode: mode, CheckpointEvery: 2}
				_, st, err := MonitorTree(cfg, desc, streams, func(round int, c sketch.Sketch) {
					perRound[mode] = append(perRound[mode], sampleBits(c, n))
				})
				if err != nil {
					t.Fatalf("mode %d: %v", mode, err)
				}
				stats[mode] = st
			}
			d, f := stats[ShipDelta], stats[ShipFull]
			if d.Rounds != rounds || f.Rounds != rounds {
				t.Fatalf("rounds: delta %d, full %d, want %d", d.Rounds, f.Rounds, rounds)
			}
			for r := 0; r < rounds; r++ {
				dr, fr := d.PerRound[r], f.PerRound[r]
				if dr.DeltaEntries != fr.FullFrames*4 {
					t.Errorf("round %d: %d delta entries, want every shard of %d edges", r+1, dr.DeltaEntries, fr.FullFrames)
				}
				if 3*dr.CommBytes > fr.CommBytes {
					t.Errorf("round %d: delta shipping %d bytes, full %d: over a third", r+1, dr.CommBytes, fr.CommBytes)
				}
				for k, b := range perRound[ShipDelta][r] {
					if b != perRound[ShipFull][r][k] {
						t.Fatalf("round %d sample %d: delta %x, full %x", r+1, k, b, perRound[ShipFull][r][k])
					}
				}
			}
		})
	}
}

// skewedChurnStreams builds the acceptance workload: a few long-lived
// sites whose keys concentrate on one replica shard each, and a large
// cold majority that drains in the first round — the regime where delta
// shipping pays.
func skewedChurnStreams(sites, hot, hotLen, coldLen, n, shards int, seed int64) [][]stream.Update {
	r := rand.New(rand.NewSource(seed))
	streams := make([][]stream.Update, sites)
	for p := range streams {
		length, stride := coldLen, 1
		if p < hot {
			// Hot site p touches only keys ≡ p (mod shards): one shard
			// of its replica set ever advances.
			length, stride = hotLen, shards
		}
		us := make([]stream.Update, length)
		for u := range us {
			k := r.Intn(n / stride)
			us[u] = stream.Update{I: (k*stride + p%shards) % n, Delta: float64(1 + r.Intn(3))}
		}
		streams[p] = us
	}
	return streams
}

// The acceptance criterion of this change: on a 200-site skewed-churn
// workload, steady-state per-round communication under delta shipping
// is at least 5× below full-state shipping, while the coordinator's
// answers stay bit-identical.
func TestTreeDeltaCommSavings200Sites(t *testing.T) {
	const (
		sites, hot = 200, 20
		n, shards  = 2048, 8
		hotLen     = 1200
		coldLen    = 30
		syncEvery  = 60
	)
	streams := skewedChurnStreams(sites, hot, hotLen, coldLen, n, shards, 77)
	desc := codec.Desc{Algo: "l2sr", N: n, S: 16, D: 1, Seed: 3}
	base := TreeConfig{
		Sites: sites, SyncEvery: syncEvery, FanIn: 4, Shards: shards,
		CheckpointEvery: 3,
		Restarts:        []Restart{{Round: 8, Site: 2}, {Round: 8, Site: 150}},
	}

	run := func(mode ShipMode) (sketch.Sketch, MonitorStats) {
		cfg := base
		cfg.Mode = mode
		coord, st, err := MonitorTree(cfg, desc, streams, nil)
		if err != nil {
			t.Fatal(err)
		}
		return coord, st
	}
	dCoord, dStats := run(ShipDelta)
	fCoord, fStats := run(ShipFull)

	db, fb := sampleBits(dCoord, n), sampleBits(fCoord, n)
	for k := range db {
		if db[k] != fb[k] {
			t.Fatalf("sample %d: delta %x, full %x — answers must be bit-identical", k, db[k], fb[k])
		}
	}
	if dStats.Rounds != fStats.Rounds || dStats.Rounds < 12 {
		t.Fatalf("rounds: delta %d, full %d", dStats.Rounds, fStats.Rounds)
	}
	if dStats.BudgetWordsPerRound != sites*dStats.SketchWords || dStats.SketchWords <= 0 {
		t.Fatalf("budget bookkeeping: %+v", dStats)
	}

	// Steady state: the cold majority has drained and no churn event is
	// near — round 11 onward (restarts fire at round 8; give the replay
	// two rounds to catch up).
	for r := 10; r < dStats.Rounds; r++ {
		dr, fr := dStats.PerRound[r], fStats.PerRound[r]
		if dr.Round != r+1 || fr.Round != r+1 {
			t.Fatalf("round ledger misnumbered: %+v %+v", dr, fr)
		}
		if dr.FullFrames != 0 {
			t.Errorf("round %d: %d full frames in steady-state delta shipping", dr.Round, dr.FullFrames)
		}
		if dr.CommBytes == 0 || fr.CommBytes == 0 {
			t.Fatalf("round %d: no communication recorded (delta %d, full %d)", dr.Round, dr.CommBytes, fr.CommBytes)
		}
		if 5*dr.CommBytes > fr.CommBytes {
			t.Errorf("round %d: delta %d bytes vs full %d — less than the required 5× saving",
				dr.Round, dr.CommBytes, fr.CommBytes)
		}
		// Words tell the same story against full-state shipping, and
		// delta rounds stay under the paper's theoretical per-round
		// budget (sites × sketch size — what a full-state star ships).
		if 5*dr.CommWords > fr.CommWords {
			t.Errorf("round %d: delta %d words vs full %d", dr.Round, dr.CommWords, fr.CommWords)
		}
		if dr.CommWords >= dStats.BudgetWordsPerRound {
			t.Errorf("round %d: delta %d words exceeds the %d budget", dr.Round, dr.CommWords, dStats.BudgetWordsPerRound)
		}
	}

	// Churn accounting: both restarts applied, and the rejoin round
	// shipped full frames even in delta mode.
	if dStats.Restarts != 2 {
		t.Errorf("restarts = %d, want 2", dStats.Restarts)
	}
	if dStats.PerRound[7].FullFrames == 0 {
		t.Errorf("rejoin round shipped no full frame: %+v", dStats.PerRound[7])
	}
}

// Interior nodes enforce the insert-only-per-epoch invariant: a delta
// frame that repeats or regresses an acknowledged epoch is rejected
// with ErrStaleFrame, and a frame from a different fabric shape with
// ErrFrameMismatch. Only full frames may reset an edge.
func TestNodeRejectsProtocolViolations(t *testing.T) {
	desc := codec.Desc{Algo: "l2sr", N: 100, S: 8, D: 1, Seed: 1}
	e, _ := registry.Lookup(desc.Algo)
	mk := func() sketch.Sketch { return e.MustNew(desc.Shape()) }
	nd := newNode(2, 4)

	fresh := &codec.DeltaFrame{Desc: desc, Shards: 4, Entries: []codec.DeltaEntry{
		{Shard: 1, Epoch: 5, Sk: mk()},
	}}
	if err := nd.absorb(0, fresh, desc, 4); err != nil {
		t.Fatal(err)
	}
	stale := &codec.DeltaFrame{Desc: desc, Shards: 4, Entries: []codec.DeltaEntry{
		{Shard: 1, Epoch: 5, Sk: mk()}, // equal, not advancing
	}}
	if err := nd.absorb(0, stale, desc, 4); !errors.Is(err, ErrStaleFrame) {
		t.Errorf("repeated epoch: err = %v, want ErrStaleFrame", err)
	}
	// The same epoch on the *other* edge is fine: epochs are per edge.
	if err := nd.absorb(1, stale, desc, 4); err != nil {
		t.Errorf("other edge rejected an independent epoch: %v", err)
	}
	// A full frame may reset the edge to any epochs.
	reset := &codec.DeltaFrame{Desc: desc, Full: true, Shards: 4, Entries: []codec.DeltaEntry{
		{Shard: 0, Epoch: 0, Sk: mk()}, {Shard: 1, Epoch: 1, Sk: mk()},
		{Shard: 2, Epoch: 0, Sk: mk()}, {Shard: 3, Epoch: 0, Sk: mk()},
	}}
	if err := nd.absorb(0, reset, desc, 4); err != nil {
		t.Fatalf("full frame rejected: %v", err)
	}
	if !nd.full {
		t.Error("full frame did not arm the upward cascade")
	}
	after := &codec.DeltaFrame{Desc: desc, Shards: 4, Entries: []codec.DeltaEntry{
		{Shard: 1, Epoch: 2, Sk: mk()},
	}}
	if err := nd.absorb(0, after, desc, 4); err != nil {
		t.Errorf("post-reset delta rejected: %v", err)
	}

	wrongShards := &codec.DeltaFrame{Desc: desc, Shards: 8}
	if err := nd.absorb(0, wrongShards, desc, 4); !errors.Is(err, ErrFrameMismatch) {
		t.Errorf("shard mismatch: err = %v, want ErrFrameMismatch", err)
	}
	otherDesc := desc
	otherDesc.Seed = 99
	wrongDesc := &codec.DeltaFrame{Desc: otherDesc, Shards: 4}
	if err := nd.absorb(0, wrongDesc, desc, 4); !errors.Is(err, ErrFrameMismatch) {
		t.Errorf("desc mismatch: err = %v, want ErrFrameMismatch", err)
	}
}

// A restart scheduled after every stream has drained keeps the fabric
// alive through idle rounds, replays the site from its checkpoint, and
// still converges to the exact same global state.
func TestTreeChurnAfterDrain(t *testing.T) {
	const n, sites = 256, 4
	streams, global := mkStreams(sites, 150, n, 31)
	desc := codec.Desc{Algo: "countsketch", N: n, S: 16, D: 3, Seed: 2}
	cfg := TreeConfig{
		Sites: sites, SyncEvery: 50, FanIn: 2, Shards: 2, Mode: ShipDelta,
		CheckpointEvery: 1,
		Restarts:        []Restart{{Round: 7, Site: 3}},
	}
	coord, st, err := MonitorTree(cfg, desc, streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 7 {
		t.Fatalf("run ended at round %d, before the scheduled restart", st.Rounds)
	}
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d", st.Restarts)
	}
	single, err := registry.SafeNew(desc.Algo, desc.Shape())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range global {
		if v != 0 {
			single.Update(i, v)
		}
	}
	for i := 0; i < n; i++ {
		if a, b := coord.Query(i), single.Query(i); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d after drain-churn: %v != %v", i, a, b)
		}
	}
}

// A site that restarts before any checkpoint was taken boots empty and
// replays its whole stream — nothing is lost, nothing is doubled.
func TestTreeRestartWithoutCheckpoint(t *testing.T) {
	const n = 128
	streams, global := mkStreams(3, 90, n, 41)
	desc := codec.Desc{Algo: "countmin", N: n, S: 32, D: 2, Seed: 6}
	cfg := TreeConfig{
		Sites: 3, SyncEvery: 30, FanIn: 2, Shards: 3, Mode: ShipDelta,
		// CheckpointEvery 0: restarts replay from scratch.
		Restarts: []Restart{{Round: 3, Site: 0}},
	}
	coord, st, err := MonitorTree(cfg, desc, streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d", st.Restarts)
	}
	single, err := registry.SafeNew(desc.Algo, desc.Shape())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range global {
		if v != 0 {
			single.Update(i, v)
		}
	}
	for i := 0; i < n; i += 7 {
		if a, b := coord.Query(i), single.Query(i); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d: %v != %v", i, a, b)
		}
	}
}

// Empty streams: zero rounds, an empty, usable coordinator.
func TestTreeEmptyStreams(t *testing.T) {
	desc := codec.Desc{Algo: "l2sr", N: 64, S: 8, D: 1, Seed: 4}
	cfg := TreeConfig{Sites: 3, SyncEvery: 10, FanIn: 2, Shards: 2}
	coord, st, err := MonitorTree(cfg, desc, make([][]stream.Update, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.UpdatesApplied != 0 || st.CommBytes != 0 {
		t.Fatalf("empty run did work: %+v", st)
	}
	if coord == nil || coord.Query(1) != 0 {
		t.Fatal("empty coordinator unusable")
	}
}

// The per-round ledger under full-state shipping on a one-level tree:
// entries sum to the totals, every site ships one full frame per
// round, and each round costs exactly the paper's sites × sketch-size
// budget.
func TestMonitorPerRoundLedger(t *testing.T) {
	const n, sites = 400, 3
	streams, _ := mkStreams(sites, 500, n, 51)
	desc := codec.Desc{Algo: "l2sr", N: n, S: 32, D: 1, Seed: 8}
	cfg := TreeConfig{Sites: sites, SyncEvery: 100, FanIn: sites, Shards: 1, Mode: ShipFull}
	_, st, err := MonitorTree(cfg, desc, streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PerRound) != st.Rounds {
		t.Fatalf("%d per-round entries for %d rounds", len(st.PerRound), st.Rounds)
	}
	var bytes, words int
	for i, r := range st.PerRound {
		if r.Round != i+1 {
			t.Errorf("entry %d numbered %d", i, r.Round)
		}
		if r.FullFrames != sites {
			t.Errorf("round %d: %d full frames, want %d (one per site)", r.Round, r.FullFrames, sites)
		}
		if r.CommWords != st.BudgetWordsPerRound {
			t.Errorf("round %d: %d words, want the %d budget", r.Round, r.CommWords, st.BudgetWordsPerRound)
		}
		bytes += r.CommBytes
		words += r.CommWords
	}
	if bytes != st.CommBytes || words != st.CommWords {
		t.Fatalf("ledger does not sum: %d/%d bytes, %d/%d words", bytes, st.CommBytes, words, st.CommWords)
	}
	if st.SketchWords <= 0 || st.BudgetWordsPerRound != sites*st.SketchWords {
		t.Fatalf("budget fields: %+v", st)
	}
}

// Mid-run coordinator states must track the global prefix: error
// against the running exact vector should stay bounded at every round.
func TestMonitorIntermediateRounds(t *testing.T) {
	const n, sites, perSite = 2000, 3, 3000
	streams, _ := mkStreams(sites, perSite, n, 3)
	desc := codec.Desc{Algo: "l2sr", N: n, S: 256, D: 1, Seed: 4}

	// Track the exact prefix as rounds complete.
	exactAt := func(round int) []float64 {
		x := make([]float64, n)
		for p := 0; p < sites; p++ {
			upTo := min(round*1000, len(streams[p]))
			for _, u := range streams[p][:upTo] {
				x[u.I] += u.Delta
			}
		}
		return x
	}

	rounds := 0
	cfg := TreeConfig{Sites: sites, SyncEvery: 1000, FanIn: 2, Shards: 2}
	_, st, err := MonitorTree(cfg, desc, streams, func(round int, coord sketch.Sketch) {
		rounds = round
		x := exactAt(round)
		var worst float64
		for i := 0; i < n; i += 37 {
			if e := math.Abs(coord.Query(i) - x[i]); e > worst {
				worst = e
			}
		}
		// Bucket noise at k=64, s=256: sqrt(2000/256)·σ ≈ small;
		// generous cap to keep the test robust.
		if worst > 50 {
			t.Errorf("round %d: worst tracked error %f", round, worst)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != st.Rounds || st.Rounds != 3 {
		t.Errorf("rounds = %d (callback %d), want 3", st.Rounds, rounds)
	}
}

// One site with far more data: rounds continue until every stream has
// drained, and nothing is lost or applied twice.
func TestMonitorUnevenStreams(t *testing.T) {
	const n = 500
	desc := codec.Desc{Algo: "l2sr", N: n, S: 32, D: 1, Seed: 7}
	streams := [][]stream.Update{
		make([]stream.Update, 2500),
		make([]stream.Update, 100),
	}
	for p := range streams {
		for u := range streams[p] {
			streams[p][u] = stream.Update{I: (p*7 + u) % n, Delta: 1}
		}
	}
	cfg := TreeConfig{Sites: 2, SyncEvery: 1000, FanIn: 2, Shards: 2}
	final, st, err := MonitorTree(cfg, desc, streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesApplied != 2600 {
		t.Errorf("applied %d, want 2600", st.UpdatesApplied)
	}
	if st.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", st.Rounds)
	}
	var total float64
	for i := 0; i < n; i++ {
		total += final.Query(i)
	}
	if math.Abs(total-2600) > 50 {
		t.Errorf("total recovered mass %f, want ≈2600", total)
	}
}
