package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/ost"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// monitorShape sizes the monitor workload: repro.Monitor over an l1sr
// aggregation tree. A run is a fixed number of sessions; each session
// is one Monitor call of rounds synchronization rounds on fresh sites
// (Monitor takes every site's stream up front, so a session bounds the
// materialised input). Every round each site ingests syncEvery updates;
// hot sites carry the planted heavy keys. Checkpoints every
// checkpointEvery rounds and restarts just after a checkpoint give
// three kinds of round: delta, checkpoint and churn.
type monitorShape struct {
	n, s, d         int
	sites           int
	hotEvery        int // every hotEvery-th site is hot
	syncEvery       int
	fanIn, shards   int
	checkpointEvery int
	rounds          int // rounds per session
	churn           []repro.MonitorRestart
	queryKeys       int // coordinator keys queried after every sync
	topkEvery       int // rounds per coordinator TopK
	k               int
	probeKeys       int // keys compared against the single-sketch oracle
	// sessionsPerSecond fixes the session count from --seconds.
	sessionsPerSecond float64
}

var monitorFull = monitorShape{
	n: 1 << 20, s: 1024, d: 5, sites: 32, hotEvery: 8, syncEvery: 256,
	fanIn: 4, shards: 4, checkpointEvery: 4, rounds: 36,
	churn:     []repro.MonitorRestart{{Round: 5, Site: 3}, {Round: 13, Site: 8}, {Round: 21, Site: 17}, {Round: 29, Site: 30}},
	queryKeys: 64, topkEvery: 8, k: 16, probeKeys: 4096,
	sessionsPerSecond: 0.13,
}

// roundKind names what the schedule put in a round.
func (sh monitorShape) roundKind(round int) string {
	for _, r := range sh.churn {
		if r.Round == round {
			return "churn"
		}
	}
	if round%sh.checkpointEvery == 0 {
		return "checkpoint"
	}
	return "delta"
}

func runMonitor(cfg runConfig, sh monitorShape) (*result, error) {
	seed := sketchSeed(cfg.seed, 0)
	opts := []repro.Option{repro.WithDim(sh.n), repro.WithWords(sh.s), repro.WithDepth(sh.d), repro.WithSeed(seed)}
	mcfg := repro.MonitorConfig{
		Sites: sh.sites, SyncEvery: sh.syncEvery, FanIn: sh.fanIn, Shards: sh.shards,
		CheckpointEvery: sh.checkpointEvery, Restarts: sh.churn,
	}
	heavy := plant(cfg.seed, sh.n)
	per := sh.rounds * sh.syncEvery
	idx, deltas := make([]int, per), make([]float64, per)
	streams := make([][]repro.SiteUpdate, sh.sites)
	for p := range streams {
		streams[p] = make([]repro.SiteUpdate, per)
	}
	siteStream := func(p int) stream {
		var h []int
		if p%sh.hotEvery == 0 {
			h = heavy
		}
		return newStream(cfg.seed, uint64(p), sh.n, h)
	}
	// session fills every site's stream for session se.
	session := func(se int) {
		for p := range streams {
			siteStream(p).fill(uint64(se), idx, deltas)
			for j := range idx {
				streams[p][j] = repro.SiteUpdate{I: idx[j], Delta: deltas[j]}
			}
		}
	}

	var tr *tracer
	layer := map[string]float64{}
	var tw *monitorTwin
	var twinErr error // first failure of a traced replay inside onSync
	if cfg.trace {
		tr = newTracer(cfg.tracePath)
		var err error
		if tw, err = newMonitorTwin(sh, seed); err != nil {
			return nil, err
		}
	}

	var tm timings
	var c checks
	kinds := map[string][]float64{}
	qidx, qout := make([]int, sh.queryKeys), make([]float64, sh.queryKeys)
	probe, got, want := make([]int, sh.probeKeys), make([]float64, sh.probeKeys), make([]float64, sh.probeKeys)
	query := siteStream(0)
	var rounds, commBytes, deltaEntries, fullFrames, activeSites int
	var coord repro.Sketch
	sessions := opCount(cfg.seconds, sh.sessionsPerSecond)
	loopStart := time.Now()
	for se := 0; se < sessions; se++ {
		session(se)
		runtime.GC()
		var last time.Time
		var o0, b0 uint64
		onSync := func(round int, co repro.Sketch) {
			now := time.Now()
			name := "monitor.setup"
			if round == 1 {
				tm.setup = append(tm.setup, now.Sub(last).Seconds())
			} else {
				name = "monitor.round"
				d := ms(now.Sub(last))
				tm.round = append(tm.round, d)
				tm.ingest = append(tm.ingest, d)
				kinds[sh.roundKind(round)] = append(kinds[sh.roundKind(round)], d)
			}
			if tr != nil {
				o1, b1 := tr.rt.read()
				tr.rt.allocs += float64(o1 - o0)
				tr.rt.bytes += float64(b1 - b0)
				tr.rt.ops++
				tr.req++
				root := tr.record(name, -1, last, now, sh.sites*sh.syncEvery)
				if err := tw.round(tr, root, streams[0][(round-1)*sh.syncEvery:round*sh.syncEvery]); err != nil && twinErr == nil {
					twinErr = err
				}
			}

			query.keys(uint64(se*sh.rounds+round), qidx)
			t0 := time.Now()
			err := repro.QueryBatch(co, qidx, qout)
			tm.query = append(tm.query, ms(time.Since(t0)))
			c.op(err == nil && finite(qout), "coordinator QueryBatch: %v", err)
			if round%sh.topkEvery == 0 {
				t0 := time.Now()
				devs, err := repro.TopK(co, sh.k)
				tm.topk = append(tm.topk, ms(time.Since(t0)))
				c.op(err == nil && wellFormedTopK(devs, sh.k), "coordinator TopK: %v", err)
			}
			if tr != nil {
				o0, b0 = tr.rt.read()
			}
			last = time.Now()
		}
		if tr != nil {
			o0, b0 = tr.rt.read()
		}
		last = time.Now()
		co, rep, err := repro.Monitor("l1sr", mcfg, streams, onSync, opts...)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", se, err)
		}
		if twinErr != nil {
			return nil, fmt.Errorf("session %d twin: %w", se, twinErr)
		}
		coord = co
		rounds += rep.Rounds
		commBytes += rep.CommBytes
		tm.ingestElems += rep.UpdatesApplied - sh.sites*sh.syncEvery // rounds ≥ 2
		for _, r := range rep.PerRound {
			deltaEntries += r.DeltaEntries
			fullFrames += r.FullFrames
			activeSites += r.ActiveSites
		}

		// The coordinator must answer bit for bit like one l1sr fed
		// every update of the session.
		one, err := repro.New("l1sr", opts...)
		if err != nil {
			return nil, err
		}
		for p := range streams {
			siteStream(p).fill(uint64(se), idx, deltas)
			if err := repro.UpdateBatch(one, idx, deltas); err != nil {
				return nil, err
			}
		}
		query.keys(1<<50+uint64(se), probe)
		if err := repro.QueryBatch(co, probe, got); err != nil {
			return nil, err
		}
		if err := repro.QueryBatch(one, probe, want); err != nil {
			return nil, err
		}
		if cfg.corrupt {
			got[0]++
		}
		c.op(sameBits(got, want), "session %d: coordinator differs from a single l1sr", se)
		c.op(rep.Rounds == sh.rounds, "session %d: %d rounds, want %d", se, rep.Rounds, sh.rounds)
	}

	tm.loopSeconds = time.Since(loopStart).Seconds()
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	// Error of the last session's coordinator over all n keys.
	x := make([]float64, sh.n)
	for p := range streams {
		siteStream(p).fill(uint64(sessions-1), idx, deltas)
		for j, i := range idx {
			x[i] += deltas[j]
		}
	}
	avgErr := repro.AvgAbsErr(x, repro.Recover(coord))

	if tr != nil {
		r := float64(rounds)
		layer["distributed.delta_round_ms"] = median(kinds["delta"])
		layer["distributed.checkpoint_round_ms"] = median(kinds["checkpoint"])
		layer["distributed.churn_round_ms"] = median(kinds["churn"])
		layer["distributed.delta_entries_per_round"] = float64(deltaEntries) / r
		layer["distributed.full_frames_per_round"] = float64(fullFrames) / r
		layer["distributed.active_sites_per_round"] = float64(activeSites) / r
		layer["distributed.comm_bytes_per_round"] = float64(commBytes) / r
		layer["core.update_ns_per_elem"] = tr.perWork("core.update")
		layer["core.new_ms"] = tr.meanMS("core.new")
		layer["core.merge_ms"] = tr.meanMS("core.merge")
		layer["ost.update_ns"] = tr.perWork("ost.update")
		layer["codec.delta_encode_ms"] = tr.meanMS("codec.delta_encode")
		layer["codec.delta_decode_ms"] = tr.meanMS("codec.delta_decode")
		layer["codec.frame_bytes"] = tw.frameBytes / tw.frames
		tr.runtimeMetrics(layer)
	}
	fmt.Fprintf(os.Stderr, "monitor: %d sessions, %d rounds, %.0f comm bytes/round\n", sessions, rounds, float64(commBytes)/float64(rounds))
	return finish(&tm, avgErr, rss, c, tr, layer)
}

// monitorTwin replays one site's round in process at the monitor's
// shape: its sharded l1sr replica absorbs the round's updates and ships
// a delta frame of the shards that changed, which is decoded and merged
// into an accumulator as a parent would; an order-statistic tree of the
// sample size replays the sample-median rebuild a merge does.
type monitorTwin struct {
	e          *registry.Entry
	shape      registry.Shape
	desc       codec.Desc
	shards     []sketch.Sketch
	epochs     []uint64
	acc        sketch.Sketch
	tree       *ost.Tree
	vals       []float64
	slots      map[int][]int
	frameBytes float64 // summed over frames
	frames     float64
	idx        [][]int
	deltas     [][]float64
}

func newMonitorTwin(sh monitorShape, seed int64) (*monitorTwin, error) {
	e, ok := registry.Lookup("l1sr")
	if !ok {
		return nil, fmt.Errorf("l1sr not registered")
	}
	tw := &monitorTwin{
		e: e, shape: registry.Shape{N: sh.n, S: sh.s, D: sh.d, Seed: seed},
		desc:   codec.Desc{Algo: "l1sr", N: sh.n, S: sh.s, D: sh.d, Seed: seed},
		epochs: make([]uint64, sh.shards),
		tree:   ost.New(seed),
		vals:   make([]float64, sh.s),
		slots:  map[int][]int{},
		idx:    make([][]int, sh.shards),
		deltas: make([][]float64, sh.shards),
	}
	for range sh.shards {
		tw.shards = append(tw.shards, e.MustNew(tw.shape))
	}
	tw.acc = e.MustNew(tw.shape)
	r := rand.New(rand.NewSource(seed))
	for s := range tw.vals {
		i := r.Intn(sh.n)
		tw.slots[i] = append(tw.slots[i], s)
		tw.tree.Insert(0)
	}
	return tw, nil
}

func (tw *monitorTwin) round(tr *tracer, root int, ups []repro.SiteUpdate) error {
	p := len(tw.shards)
	for s := range tw.idx {
		tw.idx[s], tw.deltas[s] = tw.idx[s][:0], tw.deltas[s][:0]
	}
	for _, u := range ups {
		s := u.I % p
		tw.idx[s] = append(tw.idx[s], u.I)
		tw.deltas[s] = append(tw.deltas[s], u.Delta)
	}
	frame := codec.DeltaFrame{Desc: tw.desc, Shards: p}
	for s, sk := range tw.shards {
		if len(tw.idx[s]) == 0 {
			continue
		}
		tr.timed("core.update", root, len(tw.idx[s]), func() { sketch.UpdateBatch(sk, tw.idx[s], tw.deltas[s]) })
		tw.epochs[s]++
		frame.Entries = append(frame.Entries, codec.DeltaEntry{Shard: s, Epoch: tw.epochs[s], Sk: sk})
	}
	var pkt bytes.Buffer
	var err error
	tr.timed("codec.delta_encode", root, 1, func() { err = codec.EncodeDelta(&pkt, frame) })
	if err != nil {
		return err
	}
	tw.frameBytes += float64(pkt.Len())
	tw.frames++
	var got codec.DeltaFrame
	tr.timed("codec.delta_decode", root, 1, func() { got, err = codec.DecodeDelta(&pkt) })
	if err != nil {
		return err
	}
	tr.timed("core.new", root, 1, func() { tw.e.MustNew(tw.shape) })
	for _, en := range got.Entries {
		tr.timed("core.merge", root, 1, func() { err = registry.Merge(tw.acc, en.Sk) })
		if err != nil {
			return err
		}
	}
	// The sample-median rebuild of a merge: one Delete+Insert per slot.
	inc := make(map[int]float64)
	for _, u := range ups {
		for _, s := range tw.slots[u.I] {
			inc[s] += u.Delta
		}
	}
	tr.timed("ost.update", root, len(tw.vals), func() {
		for s, v := range tw.vals {
			tw.tree.Delete(v)
			tw.vals[s] = v + inc[s]
			tw.tree.Insert(tw.vals[s])
		}
	})
	return nil
}
