package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator produces a frequency vector of a given dimension. Every
// dataset of §5.1 has a Generator here; dimensions are parameters so
// experiments can run at paper scale or laptop scale (the -scale knob
// of cmd/biasrepro).
type Generator interface {
	// Name identifies the dataset in tables and logs.
	Name() string
	// Vector draws an n-dimensional frequency vector.
	Vector(n int, r *rand.Rand) []float64
}

// ---------------------------------------------------------------------------

// Gaussian is the paper's first synthetic dataset: every coordinate is
// an independent N(Bias, Sigma²) draw (§5.1 uses n = 5·10⁸, σ = 15,
// b ∈ {100, 500}).
type Gaussian struct {
	Bias  float64
	Sigma float64
}

// Name implements Generator.
func (g Gaussian) Name() string { return fmt.Sprintf("gaussian(b=%g,sigma=%g)", g.Bias, g.Sigma) }

// Vector implements Generator.
func (g Gaussian) Vector(n int, r *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Round(r.NormFloat64()*g.Sigma + g.Bias)
	}
	return x
}

// GaussianShifted is the Gaussian-2 dataset of §5.4: N(100, 15²)
// coordinates with ShiftCount randomly chosen entries shifted by
// ShiftBy (the paper shifts 500 entries by 100,000), which wrecks the
// plain mean as a bias estimate.
type GaussianShifted struct {
	Bias       float64
	Sigma      float64
	ShiftCount int
	ShiftBy    float64
}

// Name implements Generator.
func (g GaussianShifted) Name() string {
	return fmt.Sprintf("gaussian2(shift %d by %g)", g.ShiftCount, g.ShiftBy)
}

// Vector implements Generator.
func (g GaussianShifted) Vector(n int, r *rand.Rand) []float64 {
	x := Gaussian{Bias: g.Bias, Sigma: g.Sigma}.Vector(n, r)
	count := g.ShiftCount
	if count > n {
		count = n
	}
	// Sample distinct positions to shift.
	for _, i := range r.Perm(n)[:count] {
		x[i] += g.ShiftBy
	}
	return x
}

// ---------------------------------------------------------------------------

// WorldCupLike models the 1998 World Cup site's requests-per-second
// vector (n = 86,400 seconds, ~3.2M requests on the chosen day): a
// double-peaked diurnal base rate with Poisson arrivals and occasional
// heavy bursts (match kickoffs), giving a moderate bias with a bursty
// head.
type WorldCupLike struct {
	// MeanRate is the average requests per second (paper's day:
	// 3.2M/86400 ≈ 37). Defaults to 37 when zero.
	MeanRate float64
}

// Name implements Generator.
func (w WorldCupLike) Name() string { return "worldcup-like" }

// Vector implements Generator.
func (w WorldCupLike) Vector(n int, r *rand.Rand) []float64 {
	mean := w.MeanRate
	if mean == 0 {
		mean = 37
	}
	x := make([]float64, n)
	for i := range x {
		// Two diurnal peaks (midday and evening) over a 24h cycle
		// mapped onto the vector; rates vary ±60% around the mean.
		t := float64(i) / float64(n) // position in the day
		base := mean * (1 + 0.45*math.Sin(2*math.Pi*(t-0.3)) + 0.25*math.Sin(4*math.Pi*(t-0.1)))
		if base < 1 {
			base = 1
		}
		x[i] = Poisson(r, base)
	}
	// Heavy bursts: a few short windows at 10–40× the base rate.
	bursts := 1 + n/20000
	for b := 0; b < bursts; b++ {
		start := r.Intn(n)
		width := 30 + r.Intn(120)
		boost := (10 + 30*r.Float64()) * mean
		for j := start; j < start+width && j < n; j++ {
			x[j] += Poisson(r, boost)
		}
	}
	return x
}

// WikiLike models the English-Wikipedia pageviews-per-second vector
// (n ≈ 3.5M seconds, ~1.3·10¹⁰ views → ≈3,700 views/s): a high, very
// stable base rate — an archetypal large bias with small relative
// noise — plus rare spikes and near-zero dips (outages).
type WikiLike struct {
	// MeanRate defaults to 3700 when zero.
	MeanRate float64
}

// Name implements Generator.
func (w WikiLike) Name() string { return "wiki-like" }

// Vector implements Generator.
func (w WikiLike) Vector(n int, r *rand.Rand) []float64 {
	mean := w.MeanRate
	if mean == 0 {
		mean = 3700
	}
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / float64(n)
		// Mild diurnal swing (±15%) around the large base.
		base := mean * (1 + 0.15*math.Sin(2*math.Pi*t))
		x[i] = math.Round(base + math.Sqrt(base)*r.NormFloat64())
	}
	// Rare events: viral spikes and outage dips.
	events := 1 + n/100000
	for e := 0; e < events; e++ {
		start := r.Intn(n)
		width := 10 + r.Intn(60)
		if r.Intn(2) == 0 {
			for j := start; j < start+width && j < n; j++ {
				x[j] *= 5
			}
		} else {
			for j := start; j < start+width && j < n; j++ {
				x[j] = math.Round(x[j] * 0.02)
			}
		}
	}
	return x
}

// HiggsLike models the fourth kinematic feature of the HIGGS Monte
// Carlo dataset (n = 11M): non-negative, unimodal, right-skewed
// values, generated as Gamma(Shape, Scale). The default Shape=2,
// Scale=0.5 gives mean 1 with a visible right tail, matching the
// published feature histograms' shape.
type HiggsLike struct {
	Shape, Scale float64
}

// Name implements Generator.
func (h HiggsLike) Name() string { return "higgs-like" }

// Vector implements Generator.
func (h HiggsLike) Vector(n int, r *rand.Rand) []float64 {
	shape, scale := h.Shape, h.Scale
	if shape == 0 {
		shape = 2
	}
	if scale == 0 {
		scale = 0.5
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = Gamma(r, shape, scale)
	}
	return x
}

// MemeLike models the Memetracker meme-length vector (n ≈ 2.1·10⁸):
// discrete word counts with a body around a small mode and a long
// tail, generated as discretized log-normal lengths (μ = ln 12,
// σ = 0.7 by default).
type MemeLike struct {
	Mu, Sigma float64
}

// Name implements Generator.
func (m MemeLike) Name() string { return "meme-like" }

// Vector implements Generator.
func (m MemeLike) Vector(n int, r *rand.Rand) []float64 {
	mu, sigma := m.Mu, m.Sigma
	if mu == 0 {
		mu = math.Log(12)
	}
	if sigma == 0 {
		sigma = 0.7
	}
	x := make([]float64, n)
	for i := range x {
		v := math.Round(LogNormal(r, mu, sigma))
		if v < 1 {
			v = 1
		}
		x[i] = v
	}
	return x
}

// ---------------------------------------------------------------------------

// HudongLike models the Hudong encyclopedia "related-to" edge stream
// (2.45M articles, 18.9M edges): the vector is article out-degree and
// the experiment consumes edges one at a time in the streaming model
// (§5.5). Sources follow a preferential-attachment rule, yielding the
// power-law out-degree distribution of real link graphs.
type HudongLike struct {
	// EdgesPerNode is the average out-degree (paper: 18.9M/2.45M ≈
	// 7.7). Defaults to 7.7 when zero.
	EdgesPerNode float64
	// Uniform is the probability mass of the uniform component mixed
	// into the preferential choice (keeps low-degree articles alive).
	// Defaults to 0.3.
	Uniform float64
}

// Name implements Generator.
func (h HudongLike) Name() string { return "hudong-like" }

// EdgeStream draws a stream of edge insertions over n articles; the
// returned slice holds the source article of each edge, in arrival
// order. The implied frequency vector is the out-degree vector.
func (h HudongLike) EdgeStream(n int, r *rand.Rand) []int {
	epn := h.EdgesPerNode
	if epn == 0 {
		epn = 7.7
	}
	uni := h.Uniform
	if uni == 0 {
		uni = 0.3
	}
	m := int(float64(n) * epn)
	stream := make([]int, 0, m)
	// Preferential attachment via the repeated-endpoint trick: keep a
	// bag of past sources and draw from it with probability 1−uni.
	bag := make([]int, 0, m)
	for e := 0; e < m; e++ {
		var src int
		if len(bag) == 0 || r.Float64() < uni {
			src = r.Intn(n)
		} else {
			src = bag[r.Intn(len(bag))]
		}
		stream = append(stream, src)
		bag = append(bag, src)
	}
	return stream
}

// Vector implements Generator: the final out-degree vector of a full
// edge stream.
func (h HudongLike) Vector(n int, r *rand.Rand) []float64 {
	x := make([]float64, n)
	for _, src := range h.EdgeStream(n, r) {
		x[src]++
	}
	return x
}

// ZipfLike is the classic skewed frequency workload (not one of the
// paper's datasets, but the canonical regime where conservative-update
// sketches shine and bias-aware ones have nothing to de-bias): x_i is
// the number of occurrences of rank-i items under a Zipf(S) law over a
// stream of Items draws.
type ZipfLike struct {
	// S is the Zipf exponent (> 1). Defaults to 1.2.
	S float64
	// ItemsPerCoord is the average stream length per coordinate.
	// Defaults to 10.
	ItemsPerCoord float64
}

// Name implements Generator.
func (z ZipfLike) Name() string { return "zipf-like" }

// Vector implements Generator.
func (z ZipfLike) Vector(n int, r *rand.Rand) []float64 {
	s := z.S
	if s == 0 {
		s = 1.2
	}
	ipc := z.ItemsPerCoord
	if ipc == 0 {
		ipc = 10
	}
	zf := rand.NewZipf(r, s, 1, uint64(n-1))
	x := make([]float64, n)
	for i := 0; i < int(float64(n)*ipc); i++ {
		x[zf.Uint64()]++
	}
	return x
}
