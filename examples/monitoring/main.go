// Continuous distributed monitoring on the delta-shipping aggregation
// tree: sixty-four collectors each ingest their local slice of a
// biased event stream and sync through a fan-in-4 tree every 10k local
// updates. Delta frames carry only each changed replica shard's
// change since the last acknowledged hop, so quiet sites cost (almost)
// nothing; two collectors crash mid-run and rejoin from their last
// checkpoint with one full-state frame. The run is repeated with
// full-state shipping — the paper's sites × sketch-size communication
// baseline — to show the savings, with both coordinators answering
// bit-identically. The §1 distributed model and the §4.4 streaming
// model running together.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
)

const (
	n        = 200_000
	sites    = 64
	perSite  = 60_000
	syncStep = 10_000
)

func main() {
	// Each site sees a stream of key hits. Most sites are quiet tails;
	// a handful are hot and carry a few globally hot keys that heat up
	// late. Unit deltas keep every sum exact, so "bit-identical" below
	// is meant literally.
	hot := []int{1234, 99_999, 150_000}
	streams := make([][]repro.SiteUpdate, sites)
	exact := make([]float64, n)
	for p := 0; p < sites; p++ {
		r := rand.New(rand.NewSource(int64(p + 1)))
		length := perSite / 20 // quiet tail site
		if p%8 == 0 {
			length = perSite // hot site
		}
		us := make([]repro.SiteUpdate, length)
		for u := range us {
			var i int
			if u > length/2 && r.Intn(50) == 0 {
				i = hot[r.Intn(len(hot))] // late hot keys
			} else {
				i = r.Intn(n)
			}
			us[u] = repro.SiteUpdate{I: i, Delta: 1}
			exact[i]++
		}
		streams[p] = us
	}

	// Sites and coordinator agree on one configuration and seed —
	// the same contract as Marshal/Merge, managed by the fabric.
	opts := []repro.Option{repro.WithDim(n), repro.WithWords(8192), repro.WithSeed(42)}
	cfg := repro.MonitorConfig{
		SyncEvery:       syncStep,
		FanIn:           4,
		Shards:          8,
		CheckpointEvery: 1,
		// Two sites crash before round 2 and rejoin from their round-1
		// checkpoints, replaying what the checkpoint missed.
		Restarts: []repro.MonitorRestart{{Round: 2, Site: 8}, {Round: 2, Site: 31}},
	}

	fmt.Printf("%d sites (every 8th hot), fan-in %d tree, sync every %dk per site\n\n",
		sites, cfg.FanIn, syncStep/1000)

	// Delta-shipping run, watching the coordinator every round.
	est := make([]float64, len(hot))
	coord, delta, err := repro.Monitor("l2sr", cfg, streams, func(round int, c repro.Sketch) {
		beta, _ := repro.Bias(c)
		if err := repro.QueryBatch(c, hot, est); err != nil {
			panic(err)
		}
		fmt.Printf("round %d: coordinator bias %.2f, hot keys:", round, beta)
		for k, h := range hot {
			fmt.Printf("  x[%d]≈%.0f", h, est[k])
		}
		fmt.Println()
	}, opts...)
	if err != nil {
		panic(err)
	}

	// Full-state baseline: same fabric, complete site state every round.
	cfg.FullState = true
	fullCoord, full, err := repro.Monitor("l2sr", cfg, streams, nil, opts...)
	if err != nil {
		panic(err)
	}

	fmt.Printf("\ndelta shipping:      %8d words over %d rounds (%d site restarts)\n",
		delta.CommWords, delta.Rounds, delta.Restarts)
	fmt.Printf("full-state baseline: %8d words over %d rounds (budget %d words/round = %d sites × %d-word sketch)\n",
		full.CommWords, full.Rounds, full.BudgetWordsPerRound, sites, full.SketchWords)
	fmt.Printf("savings: %.1fx overall", float64(full.CommWords)/float64(delta.CommWords))
	// Round 1 ships everyone's first state either way; steady state is
	// where the delta fabric earns its keep — quiet sites go silent.
	if last := len(delta.PerRound) - 1; last > 0 {
		fmt.Printf(", %.1fx in the final round\n",
			float64(full.PerRound[last].CommWords)/float64(delta.PerRound[last].CommWords))
	} else {
		fmt.Println()
	}

	for i := 0; i < n; i++ {
		if math.Float64bits(coord.Query(i)) != math.Float64bits(fullCoord.Query(i)) {
			panic("delta and full-state coordinators diverged")
		}
	}
	fmt.Println("delta and full-state coordinators are bit-identical")

	var worst float64
	for k, h := range hot {
		if e := math.Abs(est[k] - exact[h]); e > worst {
			worst = e
		}
	}
	fmt.Printf("final hot-key worst error: %.0f (exact counts ~%.0f)\n", worst, exact[hot[0]])
}
