package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/concurrent"
	"repro/internal/heavyhitter"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/sketch"
)

// serveShape sizes the serve workload: sketchd restored from a data
// directory of sharded l2sr tenants; each cycle sends framesPerCycle
// wire-v2 frames to the next tenant, alternating slots, then one point
// query to it, and every topkEvery cycles a TopK. Every read follows
// writes, so each query pays a snapshot refresh.
type serveShape struct {
	n, s, d         int
	tenants, shards int
	frame           int // elements per ingest frame
	framesPerCycle  int
	queryKeys       int
	probeKeys       int // keys per tenant in the final probe
	topkEvery       int // cycles per TopK
	k               int
	prefillFrames   int // frames per tenant already in the data directory
	setups          int // sketchd starts; the median time to ready is reported
	cyclesPerSecond float64
}

var serveFull = serveShape{
	n: 1 << 20, s: 4096, d: 9, tenants: 4, shards: 2,
	frame: 512, framesPerCycle: 16, queryKeys: 64, probeKeys: 16384, topkEvery: 8, k: 16,
	prefillFrames: 64, setups: 7, cyclesPerSecond: 12,
}

// maxQueryKeys is the most keys sketchd answers in one query.
const maxQueryKeys = 4096

// tenantPath is the sketch URL prefix of tenant t.
func tenantPath(t int) string { return fmt.Sprintf("/v1/t%d/sketches/s", t) }

func (sh serveShape) spec(seed int64, t int) server.Spec {
	return server.Spec{Kind: "sharded", Algo: "l2sr", Dim: sh.n, Words: sh.s, Depth: sh.d,
		Seed: sketchSeed(seed, uint64(t)), Shards: sh.shards}
}

// makeDataDir writes the data directory sketchd restores from, through
// the server package in process: create each tenant, ingest its prefill
// frames, drain (which checkpoints).
func makeDataDir(dir string, sh serveShape, seed int64, heavy []int) error {
	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		return err
	}
	h := srv.Handler()
	do := func(method, path string, body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
		}
		return nil
	}
	idx, deltas := make([]int, sh.frame), make([]float64, sh.frame)
	for t := 0; t < sh.tenants; t++ {
		spec, err := json.Marshal(struct {
			Name string `json:"name"`
			server.Spec
		}{"s", sh.spec(seed, t)})
		if err != nil {
			return err
		}
		if err := do("POST", fmt.Sprintf("/v1/t%d/sketches", t), spec); err != nil {
			return err
		}
		in := newStream(seed, uint64(t), sh.n, heavy)
		for f := 0; f < sh.prefillFrames; f++ {
			in.fill(uint64(f), idx, deltas)
			var frame bytes.Buffer
			if err := codec.EncodeBatch(&frame, idx, deltas); err != nil {
				return err
			}
			if err := do("POST", fmt.Sprintf("%s/ingest?slot=%d", tenantPath(t), f%sh.shards), frame.Bytes()); err != nil {
				return err
			}
		}
	}
	return srv.Drain()
}

// copyTree copies the regular files of src into dst, one level of
// subdirectories deep (a data directory's layout).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// sketchd is one running server process.
type sketchd struct {
	cmd  *exec.Cmd
	base string        // http://addr
	done chan struct{} // closed once stdout reaches EOF
	out  strings.Builder
}

// startSketchd execs the binary on dir and waits for its "listening
// on" line, which it prints after restoring every tenant. It returns
// the time from exec to that line.
func startSketchd(bin, dir string) (*sketchd, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir, "-checkpoint-every", "0")
	cmd.Stderr = os.Stderr
	// A benchmark that dies takes its server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	sd := &sketchd{cmd: cmd, done: make(chan struct{})}
	// Kill a server that never becomes ready, so the read below ends.
	guard := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	defer guard.Stop()
	r := bufio.NewReader(stdout)
	for {
		line, err := r.ReadString('\n')
		if addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on "); ok {
			sd.base = "http://" + addr
			break
		}
		if err != nil {
			cmd.Wait()
			return nil, 0, fmt.Errorf("sketchd exited before listening: %v", err)
		}
	}
	ready := time.Since(t0)
	go func() {
		defer close(sd.done)
		io.Copy(&sd.out, r)
	}()
	return sd, ready, nil
}

// stop drains the server with SIGTERM and waits for it to exit.
func (sd *sketchd) stop() error {
	if err := sd.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-sd.done
	if err := sd.cmd.Wait(); err != nil {
		return fmt.Errorf("sketchd drain: %w", err)
	}
	if !strings.Contains(sd.out.String(), "drained cleanly") {
		return fmt.Errorf("sketchd did not drain cleanly: %q", sd.out.String())
	}
	return nil
}

// kill ends a server that was started only to time its start-up. It
// may not have installed its signal handler yet, so it gets no drain.
func (sd *sketchd) kill() {
	sd.cmd.Process.Kill()
	<-sd.done
	sd.cmd.Wait()
}

// client is the benchmark's single keep-alive HTTP client.
type client struct {
	hc     *http.Client
	base   string
	non2xx map[int]int
}

// call sends one request and returns the status, the body and the time
// from send to the last body byte.
func (cl *client) call(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		cl.non2xx[resp.StatusCode]++
	}
	return resp.StatusCode, b, d, err
}

// serveTwin mirrors one tenant in process: a sharded l2sr of the same
// shape and seed fed the same frames, whose replica factory and merge
// are timed and counted.
type serveTwin struct {
	sh    *concurrent.Sharded[sketch.Sketch]
	tr    *tracer
	span  int // parent for factory and merge spans
	news  int // replicas constructed
	reads int
}

func newServeTwin(sh serveShape, seed int64, t int) (*serveTwin, error) {
	e, ok := registry.Lookup("l2sr")
	if !ok {
		return nil, fmt.Errorf("l2sr not registered")
	}
	shape := registry.Shape{N: sh.n, S: sh.s, D: sh.d, Seed: sketchSeed(seed, uint64(t))}
	tw := &serveTwin{span: -1}
	mk := func() sketch.Sketch {
		tw.news++
		i := tw.tr.begin("core.new", tw.span)
		sk := e.MustNew(shape)
		tw.tr.end(i, 1)
		return sk
	}
	merge := func(dst, src sketch.Sketch) (err error) {
		tw.tr.timed("core.merge", tw.span, 1, func() { err = registry.Merge(dst, src) })
		return err
	}
	tw.sh = concurrent.New(sh.shards, mk, merge)
	return tw, nil
}

// refresh folds the twin's writes into a fresh snapshot.
func (tw *serveTwin) refresh(parent int) (*concurrent.Snapshot[sketch.Sketch], error) {
	tw.reads++
	tw.span = tw.tr.begin("concurrent.refresh", parent)
	sn, err := tw.sh.Refresh()
	tw.tr.end(tw.span, 1)
	tw.span = -1
	return sn, err
}

func (tw *serveTwin) query(parent int, idx []int, out []float64) error {
	sn, err := tw.refresh(parent)
	if err != nil {
		return err
	}
	tw.tr.timed("concurrent.snapshot_query", parent, len(idx), func() { sn.QueryBatch(idx, out) })
	return nil
}

func (tw *serveTwin) topK(parent, k int) ([]heavyhitter.Deviator, error) {
	sn, err := tw.refresh(parent)
	if err != nil {
		return nil, err
	}
	bs, ok := sn.Sketch().(heavyhitter.BiasedSketch)
	if !ok {
		return nil, fmt.Errorf("l2sr snapshot is not biased")
	}
	var devs []heavyhitter.Deviator
	tw.tr.timed("heavyhitter.topk", parent, bs.Dim(), func() { devs = heavyhitter.TopK(bs, k) })
	return devs, nil
}

// ingest replays one wire frame: decode, then the sharded update.
func (tw *serveTwin) ingest(parent, slot, n int, frame []byte) error {
	var idx []int
	var deltas []float64
	var err error
	tw.tr.timed("codec.decode_batch", parent, len(frame)/16, func() {
		idx, deltas, err = codec.DecodeBatch(bytes.NewReader(frame), n)
	})
	if err != nil {
		return err
	}
	tw.tr.timed("concurrent.update", parent, len(idx), func() { tw.sh.UpdateBatch(slot, idx, deltas) })
	return nil
}

type topkReply struct {
	TopK []struct {
		Index     int     `json:"index"`
		Estimate  float64 `json:"estimate"`
		Deviation float64 `json:"deviation"`
	} `json:"topk"`
}

// sameTopK compares sketchd's TopK with the twin's bit for bit.
func sameTopK(got topkReply, want []heavyhitter.Deviator) bool {
	if len(got.TopK) != len(want) {
		return false
	}
	for i, d := range got.TopK {
		w := want[i]
		if d.Index != w.Index || math.Float64bits(d.Estimate) != math.Float64bits(w.Estimate) ||
			math.Float64bits(d.Deviation) != math.Float64bits(w.Deviation) {
			return false
		}
	}
	return true
}

func queryPath(t int, idx []int) string {
	var b strings.Builder
	b.WriteString(tenantPath(t))
	b.WriteString("/query?")
	for j, i := range idx {
		if j > 0 {
			b.WriteByte('&')
		}
		b.WriteString("i=")
		b.WriteString(strconv.Itoa(i))
	}
	return b.String()
}

func runServe(cfg runConfig, sh serveShape) (*result, error) {
	heavy := plant(cfg.seed, sh.n)
	tmpl := filepath.Join(cfg.work, "template")
	if err := makeDataDir(tmpl, sh, cfg.seed, heavy); err != nil {
		return nil, fmt.Errorf("data directory: %w", err)
	}

	var tr *tracer
	layer := map[string]float64{}
	var tm timings
	var sd *sketchd
	for r := 0; r < sh.setups; r++ {
		if sd != nil {
			sd.kill()
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("data%d", r))
		if err := copyTree(tmpl, dir); err != nil {
			return nil, err
		}
		var ready time.Duration
		var err error
		sd, ready, err = startSketchd(cfg.sketchd, dir)
		if err != nil {
			return nil, err
		}
		tm.setup = append(tm.setup, ready.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			sd.stop()
		}
	}()
	pid := sd.cmd.Process.Pid

	twins := make([]*serveTwin, sh.tenants)
	streams := make([]stream, sh.tenants)
	frames := make([]int, sh.tenants) // frames each tenant has received
	for t := range twins {
		streams[t] = newStream(cfg.seed, uint64(t), sh.n, heavy)
		frames[t] = sh.prefillFrames
	}
	idx, deltas := make([]int, sh.frame), make([]float64, sh.frame)
	feed := func(t, f int, parent int) ([]byte, error) {
		streams[t].fill(uint64(f), idx, deltas)
		var frame bytes.Buffer
		var err error
		tr.timed("codec.encode_batch", parent, len(idx), func() { err = codec.EncodeBatch(&frame, idx, deltas) })
		return frame.Bytes(), err
	}
	// newTwins builds the in-process mirrors and feeds them the prefill.
	newTwins := func() error {
		for t := range twins {
			tw, err := newServeTwin(sh, cfg.seed, t)
			if err != nil {
				return err
			}
			for f := 0; f < sh.prefillFrames; f++ {
				frame, err := feed(t, f, -1)
				if err != nil {
					return err
				}
				if err := tw.ingest(-1, f%sh.shards, sh.n, frame); err != nil {
					return err
				}
			}
			twins[t] = tw
		}
		return nil
	}
	if cfg.trace {
		if err := newTwins(); err != nil {
			return nil, err
		}
		// Warm the twins' snapshots as sketchd's restore does.
		for _, tw := range twins {
			if _, err := tw.refresh(-1); err != nil {
				return nil, err
			}
		}
		tr = newTracer(cfg.tracePath)
		for _, tw := range twins {
			tw.tr, tw.news, tw.reads = tr, 0, 0
		}
		merged, err := twins[0].sh.Merged()
		if err != nil {
			return nil, err
		}
		var ckpt bytes.Buffer
		desc := codec.Desc{Algo: "l2sr", N: sh.n, S: sh.s, D: sh.d, Seed: sketchSeed(cfg.seed, 0)}
		if err := codec.EncodeSketch(&ckpt, desc, merged); err != nil {
			return nil, err
		}
		var decodes []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			if _, _, err := codec.DecodeSketch(bytes.NewReader(ckpt.Bytes())); err != nil {
				return nil, err
			}
			decodes = append(decodes, ms(time.Since(t0)))
		}
		layer["codec.decode_sketch_ms"] = median(decodes)
	}

	cl := &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}, base: sd.base, non2xx: map[int]int{}}
	defer cl.hc.CloseIdleConnections()
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	// send makes one HTTP call; traced, it records the call as the
	// server span under root, whose children are the twin's replay.
	send := func(root int, name, method, path string, body []byte, work int) (int, []byte, time.Duration, int, error) {
		var status int
		var b []byte
		var d time.Duration
		var err error
		tr.around(func() { status, b, d, err = cl.call(method, path, body) })
		now := time.Now()
		return status, b, d, tr.record(name, root, now.Add(-d), now, work), err
	}

	var c checks
	qidx, tout := make([]int, sh.queryKeys), make([]float64, sh.queryKeys)
	var est struct {
		Estimates []float64 `json:"estimates"`
	}
	var tk topkReply
	cycles := opCount(cfg.seconds, sh.cyclesPerSecond)
	loopStart := time.Now()
	for cy := 0; cy < cycles; cy++ {
		t := cy % sh.tenants
		var round float64
		for j := 0; j < sh.framesPerCycle; j++ {
			root := tr.op("serve.ingest")
			frame, err := feed(t, frames[t], root)
			if err != nil {
				return nil, err
			}
			slot := frames[t] % sh.shards
			frames[t]++
			path := fmt.Sprintf("%s/ingest?slot=%d", tenantPath(t), slot)
			status, body, d, srvSpan, err := send(root, "server.ingest", "POST", path, frame, sh.frame)
			if tr != nil {
				if err := twins[t].ingest(srvSpan, slot, sh.n, frame); err != nil {
					return nil, err
				}
				tr.end(root, sh.frame)
			}
			var applied struct {
				Applied int `json:"applied"`
			}
			ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &applied) == nil && applied.Applied == sh.frame
			c.op(ok, "ingest %s: status %d err %v body %.80q", path, status, err, body)
			tm.addIngest(d, sh.frame)
			round += ms(d)
		}

		streams[t].keys(uint64(cy), qidx)
		root := tr.op("serve.query")
		status, body, d, srvSpan, err := send(root, "server.query", "GET", queryPath(t, qidx), nil, sh.queryKeys)
		est.Estimates = nil
		ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &est) == nil &&
			len(est.Estimates) == sh.queryKeys && finite(est.Estimates)
		if tr != nil {
			if err := twins[t].query(srvSpan, qidx, tout); err != nil {
				return nil, err
			}
			tr.end(root, sh.queryKeys)
			ok = ok && sameBits(est.Estimates, tout)
		}
		c.op(ok, "query %s: status %d err %v", tenantPath(t), status, err)
		tm.query = append(tm.query, ms(d))
		round += ms(d)

		if (cy+1)%sh.topkEvery == 0 {
			root = tr.op("serve.topk")
			status, body, d, srvSpan, err := send(root, "server.topk", "GET", fmt.Sprintf("%s/topk?k=%d", tenantPath(t), sh.k), nil, sh.n)
			tk = topkReply{}
			ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &tk) == nil && len(tk.TopK) == sh.k
			if tr != nil {
				want, err := twins[t].topK(srvSpan, sh.k)
				if err != nil {
					return nil, err
				}
				tr.end(root, sh.n)
				ok = ok && sameTopK(tk, want)
			}
			c.op(ok, "topk %s: status %d err %v", tenantPath(t), status, err)
			tm.topk = append(tm.topk, ms(d))
		}
		tm.round = append(tm.round, round)
	}

	tm.loopSeconds = time.Since(loopStart).Seconds()
	rss, err := vmHWM(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}

	// Verification: every tenant answers a fixed probe set and a TopK;
	// twins fed the same frames must answer both bit for bit, and exact
	// counts of the probes give the error.
	probe, pout := make([]int, sh.probeKeys), make([]float64, sh.probeKeys)
	finalQuery := make([][]float64, sh.tenants)
	finalTopK := make([]topkReply, sh.tenants)
	for t := range finalQuery {
		streams[t].keys(1<<50, probe)
		for lo := 0; lo < len(probe); lo += maxQueryKeys {
			chunk := probe[lo:min(lo+maxQueryKeys, len(probe))]
			status, body, _, err := cl.call("GET", queryPath(t, chunk), nil)
			est.Estimates = nil
			c.op(err == nil && status == http.StatusOK && json.Unmarshal(body, &est) == nil && len(est.Estimates) == len(chunk),
				"final query %s: status %d err %v", tenantPath(t), status, err)
			finalQuery[t] = append(finalQuery[t], est.Estimates...)
		}
		status, body, _, err := cl.call("GET", fmt.Sprintf("%s/topk?k=%d", tenantPath(t), sh.k), nil)
		c.op(err == nil && status == http.StatusOK && json.Unmarshal(body, &finalTopK[t]) == nil,
			"final topk %s: status %d err %v", tenantPath(t), status, err)
	}
	if cfg.corrupt && len(finalQuery[0]) > 0 {
		finalQuery[0][0]++
	}
	cl.hc.CloseIdleConnections()
	stopped = true
	c.op(sd.stop() == nil, "sketchd drain")

	if tr == nil {
		if err := newTwins(); err != nil {
			return nil, err
		}
		for t, tw := range twins {
			for f := sh.prefillFrames; f < frames[t]; f++ {
				frame, err := feed(t, f, -1)
				if err != nil {
					return nil, err
				}
				if err := tw.ingest(-1, f%sh.shards, sh.n, frame); err != nil {
					return nil, err
				}
			}
		}
	}
	var news, reads int
	for _, tw := range twins {
		news += tw.news
		reads += tw.reads
		tw.tr = nil
	}
	var errSum float64
	var probes int
	for t, tw := range twins {
		streams[t].keys(1<<50, probe)
		if err := tw.query(-1, probe, pout); err != nil {
			return nil, err
		}
		c.op(sameBits(finalQuery[t], pout), "tenant %d: final probe answers differ from the twin", t)
		want, err := tw.topK(-1, sh.k)
		if err != nil {
			return nil, err
		}
		c.op(sameTopK(finalTopK[t], want), "tenant %d: final TopK differs from the twin", t)
		x := make(map[int]float64, len(probe))
		for _, i := range probe {
			x[i] = 0
		}
		for f := 0; f < frames[t]; f++ {
			streams[t].fill(uint64(f), idx, deltas)
			for j, i := range idx {
				if _, ok := x[i]; ok {
					x[i] += deltas[j]
				}
			}
		}
		for j, i := range probe {
			if j < len(finalQuery[t]) {
				errSum += math.Abs(finalQuery[t][j] - x[i])
				probes++
			}
		}
	}
	avgErr := errSum / float64(max(probes, 1))

	if tr != nil {
		layer["core.new_ms"] = tr.meanMS("core.new")
		layer["core.news_per_read"] = float64(news) / float64(max(reads, 1))
		layer["core.merge_ms"] = tr.meanMS("core.merge")
		layer["concurrent.update_ns_per_elem"] = tr.perWork("concurrent.update")
		layer["concurrent.refresh_ms"] = tr.meanMS("concurrent.refresh")
		layer["concurrent.snapshot_query_ns_per_key"] = tr.perWork("concurrent.snapshot_query")
		layer["heavyhitter.topk_ms"] = tr.meanMS("heavyhitter.topk")
		layer["codec.encode_batch_ns_per_elem"] = tr.perWork("codec.encode_batch")
		layer["codec.decode_batch_ns_per_elem"] = tr.perWork("codec.decode_batch")
		layer["server.ingest_self_us"] = tr.selfMean("server.ingest") / 1e3
		layer["server.query_self_us"] = tr.selfMean("server.query") / 1e3
		layer["server.topk_self_us"] = tr.selfMean("server.topk") / 1e3
		var non2xx int
		for _, n := range cl.non2xx {
			non2xx += n
		}
		layer["server.non2xx"] = float64(non2xx)
		layer["server.cpu_s"] = cpu1 - cpu0
		tr.runtimeMetrics(layer)
	}
	if len(cl.non2xx) > 0 {
		fmt.Fprintf(os.Stderr, "non-2xx responses by status: %v\n", cl.non2xx)
	}
	return finish(&tm, avgErr, rss, c, tr, layer)
}
