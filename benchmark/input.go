package main

// The benchmark's input is a seeded biased stream: a uniform background
// over the n keys (which sets the bias β the S/R sketches estimate)
// plus, on hot streams, planted heavy keys; every delta is an integer
// in 1..5, so sums over shards, sites and tree levels are exact and
// answers can be compared bit for bit. Batches are generated on demand
// from (seed, stream, batch index) by a counter-based generator, so no
// run materialises its whole stream and verification regenerates any
// batch instead of storing it.

const (
	golden       = 0x9e3779b97f4a7c15
	heavyKeys    = 32  // planted heavy keys per run
	heavyPerMill = 100 // share of a hot stream's elements that hit one
	queryHeavy   = 8   // one query key in this many is a planted key
)

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// stream is one seeded update stream over keys [0, n).
type stream struct {
	n     int
	state uint64
	heavy []int // nil: background only
}

// newStream returns stream id of the run seeded by seed.
func newStream(seed int64, id uint64, n int, heavy []int) stream {
	return stream{n: n, state: mix(uint64(seed)*golden ^ mix(id+1)), heavy: heavy}
}

// key maps a random word uniformly onto [0, n).
func (g stream) key(r uint64) int { return int((r >> 32) * uint64(g.n) >> 32) }

// fill writes batch b of the stream into idx and deltas.
func (g stream) fill(b uint64, idx []int, deltas []float64) {
	s := mix(g.state ^ (b+1)*golden)
	for j := range idx {
		s += golden
		r := mix(s)
		if g.heavy != nil && r%1000 < heavyPerMill {
			idx[j] = g.heavy[(r>>10)%uint64(len(g.heavy))]
		} else {
			idx[j] = g.key(r)
		}
		deltas[j] = float64(1 + (r>>16)%5)
	}
}

// keys writes query key set b: mostly uniform keys, one in queryHeavy a
// planted key, so answers cover both the background and the outliers.
func (g stream) keys(b uint64, out []int) {
	s := mix(^g.state ^ (b+1)*golden)
	for j := range out {
		s += golden
		r := mix(s)
		if len(g.heavy) > 0 && r%queryHeavy == 0 {
			out[j] = g.heavy[(r>>10)%uint64(len(g.heavy))]
		} else {
			out[j] = g.key(r)
		}
	}
}

// plant draws the run's distinct heavy keys.
func plant(seed int64, n int) []int {
	g := newStream(seed, 1<<40, n, nil)
	seen := make(map[int]bool, heavyKeys)
	out := make([]int, 0, heavyKeys)
	for s := g.state; len(out) < heavyKeys && len(out) < n; {
		s += golden
		k := g.key(mix(s))
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// sketchSeed derives a nonzero sketch seed for sketch i of the run.
func sketchSeed(seed int64, i uint64) int64 {
	return int64(mix(uint64(seed)^mix(i+7))>>2) | 1
}
