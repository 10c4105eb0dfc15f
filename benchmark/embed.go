package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/biasheap"
	"repro/internal/hashing"
	"repro/internal/sketch"
)

// embedShape sizes the embed workload: an application that resumes an
// l2sr from a checkpoint, then ingests in UpdateBatch calls with a
// QueryBatch after every queryEvery calls and a TopK every topkEvery
// cycles. Hashing, the CountSketch rows, the Bias-Heap and core do the
// work; at the full shape the counters and ψ overflow a core's L2.
type embedShape struct {
	n, s, d    int
	batch      int // elements per UpdateBatch
	queryKeys  int // keys per QueryBatch
	queryEvery int // UpdateBatch calls per cycle
	topkEvery  int // cycles per TopK
	k          int
	prefill    int // batches the checkpoint already holds
	setups     int // set-up repetitions; the median is reported
	// cyclesPerSecond fixes the op count from --seconds, calibrated so
	// a run measures about that long on a 2-vCPU guest.
	cyclesPerSecond float64
}

var embedFull = embedShape{
	n: 1 << 20, s: 1 << 16, d: 9,
	batch: 4096, queryKeys: 1024, queryEvery: 4, topkEvery: 64, k: 16,
	prefill: 128, setups: 5, cyclesPerSecond: 75,
}

func runEmbed(cfg runConfig, sh embedShape) (*result, error) {
	seed := sketchSeed(cfg.seed, 0)
	opts := []repro.Option{repro.WithDim(sh.n), repro.WithWords(sh.s), repro.WithDepth(sh.d), repro.WithSeed(seed)}
	in := newStream(cfg.seed, 0, sh.n, plant(cfg.seed, sh.n))
	idx, deltas := make([]int, sh.batch), make([]float64, sh.batch)
	qidx, qout := make([]int, sh.queryKeys), make([]float64, sh.queryKeys)

	// The checkpoint an earlier process left behind.
	sk, err := repro.New("l2sr", opts...)
	if err != nil {
		return nil, err
	}
	for b := 0; b < sh.prefill; b++ {
		in.fill(uint64(b), idx, deltas)
		if err := repro.UpdateBatch(sk, idx, deltas); err != nil {
			return nil, err
		}
	}
	ckpt, err := repro.Marshal(sk)
	if err != nil {
		return nil, err
	}
	// From here on the process is the application resuming from ckpt;
	// the peak resident set counts only that.
	sk = nil
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting the peak resident set: %w", err)
	}

	var tr *tracer
	layer := map[string]float64{}
	if cfg.trace {
		tr = newTracer(cfg.tracePath)
		var news []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			if _, err := repro.New("l2sr", opts...); err != nil {
				return nil, err
			}
			news = append(news, ms(time.Since(t0)))
		}
		layer["core.new_ms"] = median(news)
	}

	// Set-up: decode plus the first query's lazy ψ build, repeated.
	var tm timings
	var decodes []float64
	for r := 0; r < sh.setups; r++ {
		sk = nil
		runtime.GC()
		t0 := time.Now()
		sk, err = repro.Unmarshal(ckpt)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := repro.QueryBatch(sk, qidx[:1], qout[:1]); err != nil {
			return nil, err
		}
		tm.setup = append(tm.setup, time.Since(t0).Seconds())
		decodes = append(decodes, ms(t1.Sub(t0)))
	}
	ckpt = nil
	runtime.GC()
	layer["codec.decode_sketch_ms"] = median(decodes)

	var tw *embedTwin
	if tr != nil {
		if tw, err = newEmbedTwin(sh, seed); err != nil {
			return nil, err
		}
		tr.rt = newRTProbe()
	}

	var c checks
	cycles := opCount(cfg.seconds, sh.cyclesPerSecond)
	loopStart := time.Now()
	b := sh.prefill
	for cy := 0; cy < cycles; cy++ {
		var round float64
		for j := 0; j < sh.queryEvery; j++ {
			in.fill(uint64(b), idx, deltas)
			b++
			var d time.Duration
			call := func() {
				t0 := time.Now()
				err = repro.UpdateBatch(sk, idx, deltas)
				d = time.Since(t0)
			}
			root := tr.op("embed.ingest")
			tr.around(func() { tr.timed("core.update", root, len(idx), call) })
			if tw != nil {
				tw.ingest(tr, root, idx, deltas)
			}
			tr.end(root, len(idx))
			c.op(err == nil, "UpdateBatch: %v", err)
			tm.addIngest(d, len(idx))
			round += ms(d)
		}

		in.keys(uint64(cy), qidx)
		var d time.Duration
		call := func() {
			t0 := time.Now()
			err = repro.QueryBatch(sk, qidx, qout)
			d = time.Since(t0)
		}
		root := tr.op("embed.query")
		tr.around(func() { tr.timed("core.query", root, len(qidx), call) })
		if tw != nil {
			tw.query(tr, root, qidx)
		}
		tr.end(root, len(qidx))
		if cfg.corrupt {
			qout[0]++
		}
		c.op(err == nil && finite(qout), "QueryBatch: %v", err)
		tm.query = append(tm.query, ms(d))
		round += ms(d)

		if (cy+1)%sh.topkEvery == 0 {
			var devs []repro.Deviator
			call := func() {
				t0 := time.Now()
				devs, err = repro.TopK(sk, sh.k)
				d = time.Since(t0)
			}
			root := tr.op("embed.topk")
			tr.around(func() { tr.timed("heavyhitter.topk", root, sh.n, call) })
			tr.end(root, sh.n)
			c.op(err == nil && wellFormedTopK(devs, sh.k), "TopK: %v", err)
			tm.topk = append(tm.topk, ms(d))
		}
		tm.round = append(tm.round, round)
	}

	tm.loopSeconds = time.Since(loopStart).Seconds()
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}

	// Verification: exact counts from the regenerated stream.
	x := make([]float64, sh.n)
	for bb := 0; bb < b; bb++ {
		in.fill(uint64(bb), idx, deltas)
		for j, i := range idx {
			x[i] += deltas[j]
		}
	}
	xhat := repro.Recover(sk)
	last := make([]float64, len(qidx))
	for j, i := range qidx {
		last[j] = xhat[i]
	}
	c.op(sameBits(last, qout), "last QueryBatch differs from Recover")
	beta, err := repro.Bias(sk)
	if err != nil {
		return nil, err
	}
	viol, allowed := l2Violations(x, xhat, beta, sh.s/4, sh.d)
	c.op(float64(viol) <= allowed, "l2-S/R bound: %d violations, %.0f allowed", viol, allowed)
	avgErr := repro.AvgAbsErr(x, xhat)

	if tr != nil {
		layer["hashing.ns_per_key_row"] = tr.perWork("hashing.hash")
		layer["sketch.update_ns_per_elem"] = tr.perWork("sketch.update")
		layer["sketch.query_ns_per_key"] = tr.perWork("sketch.query")
		layer["sketch.median_ns"] = tr.perWork("sketch.median")
		layer["biasheap.update_ns"] = tr.perWork("biasheap.update")
		layer["core.update_ns_per_elem"] = tr.perWork("core.update")
		layer["core.query_ns_per_key"] = tr.perWork("core.query")
		layer["heavyhitter.topk_ms"] = tr.meanMS("heavyhitter.topk")
		tr.runtimeMetrics(layer)
	}
	return finish(&tm, avgErr, rss, c, tr, layer)
}

// l2Violations counts coordinates whose error exceeds the ℓ2-S/R bound
// 3‖x−β̂‖₂/√k and the number allowed, (δ+0.01)·n with
// δ = (4p(1−p))^{d/2} at p = 1/9 — the rule accuracy_bound_test.go
// applies.
func l2Violations(x, xhat []float64, beta float64, k, d int) (int, float64) {
	var res float64
	for _, v := range x {
		res += (v - beta) * (v - beta)
	}
	thr := 3 * math.Sqrt(res) / math.Sqrt(float64(k))
	p := 1.0 / 9
	delta := math.Pow(4*p*(1-p), float64(d)/2)
	viol := 0
	for i := range x {
		if math.Abs(xhat[i]-x[i]) > thr {
			viol++
		}
	}
	return viol, (delta + 0.01) * float64(len(x))
}

// wellFormedTopK checks a TopK answer's length, values and order.
func wellFormedTopK(devs []repro.Deviator, k int) bool {
	if len(devs) != k {
		return false
	}
	for i, d := range devs {
		if math.IsNaN(d.Estimate) || math.IsNaN(d.Deviation) || (i > 0 && d.Deviation > devs[i-1].Deviation) {
			return false
		}
	}
	return true
}

// opCount is the fixed number of ops a run of the given length makes.
func opCount(seconds, perSecond float64) int {
	if n := int(math.Round(seconds * perSecond)); n > 1 {
		return n
	}
	return 1
}

// embedTwin holds in-process objects of the embedded l2sr's shape and
// seed: a CountSketch built from the same random stream as the l2sr's
// rows, the same bucket hash and Bias-Heap, and a hash family of the
// rows' shape. Replaying an op on them repeats the layer's work.
type embedTwin struct {
	cs     *sketch.CountSketch
	g      hashing.Pairwise
	heap   *biasheap.Heap
	fam    hashing.Family
	signs  hashing.SignFamily
	d      int
	hbuf   []int
	sbuf   []float64
	bucket []int
	qout   []float64
	vals   []float64
}

func newEmbedTwin(sh embedShape, seed int64) (*embedTwin, error) {
	r := rand.New(rand.NewSource(seed))
	cs, err := sketch.NewCountSketch(sketch.Config{N: sh.n, Rows: sh.s, Depth: sh.d}, r)
	if err != nil {
		return nil, err
	}
	g, err := hashing.NewPairwise(r, sh.s)
	if err != nil {
		return nil, err
	}
	pi := make([]float64, sh.s)
	for j := 0; j < sh.n; j++ {
		pi[g.Hash(uint64(j))]++
	}
	r2 := rand.New(rand.NewSource(seed ^ 0x5eed))
	fam, err := hashing.NewFamily(r2, sh.d, sh.s)
	if err != nil {
		return nil, err
	}
	n := max(sh.batch, sh.queryKeys)
	return &embedTwin{
		cs: cs, g: g, heap: biasheap.New(pi, 2*(sh.s/4)),
		fam: fam, signs: hashing.NewSignFamily(r2, sh.d), d: sh.d,
		hbuf: make([]int, n), sbuf: make([]float64, n), bucket: make([]int, n),
		qout: make([]float64, sh.queryKeys), vals: make([]float64, sh.d),
	}, nil
}

func (tw *embedTwin) hash(tr *tracer, root int, idx []int) {
	tr.timed("hashing.hash", root, len(idx)*tw.d, func() {
		for t := 0; t < tw.d; t++ {
			tw.fam.HashMany(t, idx, tw.hbuf[:len(idx)])
			tw.signs.SignFloatMany(t, idx, tw.sbuf[:len(idx)])
		}
	})
}

func (tw *embedTwin) ingest(tr *tracer, root int, idx []int, deltas []float64) {
	tw.hash(tr, root, idx)
	tr.timed("sketch.update", root, len(idx), func() { tw.cs.UpdateBatch(idx, deltas) })
	bk := tw.bucket[:len(idx)]
	for j, i := range idx {
		bk[j] = tw.g.Hash(uint64(i))
	}
	tr.timed("biasheap.update", root, len(idx), func() {
		for j, b := range bk {
			tw.heap.Update(b, deltas[j])
		}
	})
}

func (tw *embedTwin) query(tr *tracer, root int, idx []int) {
	tw.hash(tr, root, idx)
	tr.timed("sketch.query", root, len(idx), func() { tw.cs.QueryBatch(idx, tw.qout[:len(idx)]) })
	src := tw.qout[:len(idx)]
	tr.timed("sketch.median", root, len(idx), func() {
		for j := range src {
			for t := range tw.vals {
				tw.vals[t] = src[(j+t)%len(src)]
			}
			sketch.Median(tw.vals)
		}
	})
}
