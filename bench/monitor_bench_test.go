// Distributed-monitoring fabric benchmarks: one op is a complete
// continuous-monitoring run, and the numbers that matter are the custom
// ms/round metric — wall time per synchronization round — and
// comm-B/round — encoded frame bytes per round across every tree edge.
// The skewed l2sr cases compare delta shipping against the full-state
// baseline the paper's sites × sketch-size budget describes; the
// uniform l1sr case runs the repository benchmark's monitor shape,
// where every shard of every site changes every round.
package bench_test

import (
	"math/rand"
	"testing"

	"repro"
)

// monitorWorkload builds the benchmark's skewed site streams: a few
// hot sites dominate while the tail goes quiet after the first round,
// which is where delta shipping pulls away from the baseline.
func monitorWorkload(sites, dim int) [][]repro.SiteUpdate {
	streams := make([][]repro.SiteUpdate, sites)
	for p := 0; p < sites; p++ {
		n := 64
		if p%8 == 0 {
			n = 4096 // hot site
		}
		us := make([]repro.SiteUpdate, n)
		for u := range us {
			us[u] = repro.SiteUpdate{I: (p*7919 + u*131) % dim, Delta: float64(1 + u%3)}
		}
		streams[p] = us
	}
	return streams
}

// uniformMonitorWorkload gives every site perSite updates on keys drawn
// uniformly from [0, dim), each delta an integer in 1..5.
func uniformMonitorWorkload(sites, perSite, dim int) [][]repro.SiteUpdate {
	r := rand.New(rand.NewSource(11))
	streams := make([][]repro.SiteUpdate, sites)
	for p := range streams {
		streams[p] = make([]repro.SiteUpdate, perSite)
		for u := range streams[p] {
			streams[p][u] = repro.SiteUpdate{I: r.Intn(dim), Delta: float64(1 + r.Intn(5))}
		}
	}
	return streams
}

func BenchmarkMonitorRound(b *testing.B) {
	skewed := monitorWorkload(64, 50_000)
	skewedOpts := []repro.Option{
		repro.WithDim(50_000), repro.WithWords(512), repro.WithDepth(3), repro.WithSeed(7),
	}
	// The repository benchmark's monitor shape: 32 sites, n=2^20,
	// s=1024, d=5, fan-in 4, 4 shards, 256 updates per site per round,
	// 36 rounds.
	const uniformDim = 1 << 20
	uniform := uniformMonitorWorkload(32, 36*256, uniformDim)
	uniformOpts := []repro.Option{
		repro.WithDim(uniformDim), repro.WithWords(1024), repro.WithDepth(5), repro.WithSeed(7),
	}
	for _, c := range []struct {
		name    string
		algo    string
		streams [][]repro.SiteUpdate
		opts    []repro.Option
		cfg     repro.MonitorConfig
	}{
		{"delta", "l2sr", skewed, skewedOpts, repro.MonitorConfig{SyncEvery: 512, FanIn: 4, Shards: 4}},
		{"full", "l2sr", skewed, skewedOpts, repro.MonitorConfig{SyncEvery: 512, FanIn: 4, Shards: 4, FullState: true}},
		{"l1sr-uniform", "l1sr", uniform, uniformOpts, repro.MonitorConfig{SyncEvery: 256, FanIn: 4, Shards: 4}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var rep repro.MonitorReport
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = repro.Monitor(c.algo, c.cfg, c.streams, nil, c.opts...)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if rep.Rounds == 0 {
				b.Fatal("no synchronization rounds ran")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*rep.Rounds), "ms/round")
			b.ReportMetric(float64(rep.CommBytes)/float64(rep.Rounds), "comm-B/round")
			b.ReportMetric(float64(rep.CommWords)/float64(rep.Rounds), "comm-words/round")
		})
	}
}
