package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports; each
// workload defines every one of them (see README.md for the per-workload
// definitions).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ingest_elems_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_tail_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"topk_p50_ms", "ms"},
	{"round_p50_ms", "ms"},
	{"round_tail_ms", "ms"},
	{"avg_abs_err", "count"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "ratio"},
}

// perLayer lists the traced run's metrics. A workload that never calls
// a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"hashing.ns_per_key_row", "ns"},
	{"sketch.update_ns_per_elem", "ns"},
	{"sketch.query_ns_per_key", "ns"},
	{"sketch.median_ns", "ns"},
	{"biasheap.update_ns", "ns"},
	{"ost.update_ns", "ns"},
	{"core.update_ns_per_elem", "ns"},
	{"core.query_ns_per_key", "ns"},
	{"core.new_ms", "ms"},
	{"core.news_per_read", "count"},
	{"core.merge_ms", "ms"},
	{"concurrent.update_ns_per_elem", "ns"},
	{"concurrent.refresh_ms", "ms"},
	{"concurrent.snapshot_query_ns_per_key", "ns"},
	{"heavyhitter.topk_ms", "ms"},
	{"codec.encode_batch_ns_per_elem", "ns"},
	{"codec.decode_batch_ns_per_elem", "ns"},
	{"codec.decode_sketch_ms", "ms"},
	{"codec.delta_encode_ms", "ms"},
	{"codec.delta_decode_ms", "ms"},
	{"codec.frame_bytes", "B"},
	{"server.ingest_self_us", "us"},
	{"server.query_self_us", "us"},
	{"server.topk_self_us", "us"},
	{"server.non2xx", "count"},
	{"server.cpu_s", "s"},
	{"distributed.delta_round_ms", "ms"},
	{"distributed.checkpoint_round_ms", "ms"},
	{"distributed.churn_round_ms", "ms"},
	{"distributed.delta_entries_per_round", "count"},
	{"distributed.full_frames_per_round", "count"},
	{"distributed.active_sites_per_round", "count"},
	{"distributed.comm_bytes_per_round", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"traced.ingest_p50_ms", "ms"},
	{"traced.query_p50_ms", "ms"},
	{"traced.round_p50_ms", "ms"},
}

// checks counts attempted operations and those that failed a call or
// an output check.
type checks struct{ attempted, failed int }

func (c *checks) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
		}
	}
}

// timings collects one run's end-to-end samples.
type timings struct {
	setup                      []float64 // seconds
	ingest, query, topk, round []float64 // milliseconds per op
	ingestElems                int       // elements in the ingest samples
	loopSeconds                float64   // wall time of the measured loop
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (t *timings) addIngest(d time.Duration, elems int) {
	t.ingest = append(t.ingest, ms(d))
	t.ingestElems += elems
}

// tailPct is the percentile every *_tail_ms metric reports: the
// highest of p99 and p90 with at least ten samples beyond it that
// repeated within a tenth across runs (README.md); p99 did not.
const tailPct = 90

// quantile returns the p-th percentile of xs (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// endToEndMetrics assembles the untraced result.
func endToEndMetrics(t *timings, avgErr, rssMB float64, c checks) map[string]metric {
	fmt.Fprintf(os.Stderr, "samples: setup=%d ingest=%d query=%d topk=%d round=%d; measured loop %.1fs\n",
		len(t.setup), len(t.ingest), len(t.query), len(t.topk), len(t.round), t.loopSeconds)
	for _, ser := range []struct {
		name string
		xs   []float64
	}{{"setup", t.setup}, {"ingest", t.ingest}, {"query", t.query}, {"topk", t.topk}, {"round", t.round}} {
		fmt.Fprintf(os.Stderr, "%-6s p10=%.4g p25=%.4g p50=%.4g p75=%.4g p90=%.4g p99=%.4g max=%.4g\n", ser.name,
			quantile(ser.xs, 10), quantile(ser.xs, 25), quantile(ser.xs, 50), quantile(ser.xs, 75),
			quantile(ser.xs, 90), quantile(ser.xs, 99), quantile(ser.xs, 100))
	}
	vals := map[string]float64{
		"setup_s": median(t.setup),
		// Elements per ingest op over the median op time: the rate of a
		// typical call, which stalls of the host do not move.
		"ingest_elems_per_s": float64(t.ingestElems) / float64(len(t.ingest)) / (median(t.ingest) / 1e3),
		"ingest_p50_ms":      median(t.ingest),
		"ingest_tail_ms":     quantile(t.ingest, tailPct),
		"query_p50_ms":       median(t.query),
		"query_tail_ms":      quantile(t.query, tailPct),
		"topk_p50_ms":        median(t.topk),
		"round_p50_ms":       median(t.round),
		"round_tail_ms":      quantile(t.round, tailPct),
		"avg_abs_err":        avgErr,
		"peak_rss_mb":        rssMB,
		"ok_frac":            float64(c.attempted-c.failed) / float64(c.attempted),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// layerMetrics fills every per-layer metric, 0 where the workload sets
// none.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("benchmark: undeclared per-layer metric " + name)
		}
	}
	return out
}

// finish assembles the result: end-to-end metrics untraced, per-layer
// metrics traced (then the spans are written too).
func finish(t *timings, avgErr, rssMB float64, c checks, tr *tracer, layer map[string]float64) (*result, error) {
	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed}
	if tr == nil {
		res.Metrics = endToEndMetrics(t, avgErr, rssMB, c)
		return res, nil
	}
	layer["traced.ingest_p50_ms"] = median(t.ingest)
	layer["traced.query_p50_ms"] = median(t.query)
	layer["traced.round_p50_ms"] = median(t.round)
	res.Metrics = layerMetrics(layer)
	return res, tr.write()
}

// ---------------------------------------------------------------------
// Tracing.

// span is one timed call. Twin replays are children of the end-to-end
// op they replay; a layer's self time is its span minus its children.
type span struct {
	Name   string `json:"name"` // layer.op
	Req    int    `json:"req"`  // end-to-end op id shared by the op's spans
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int    `json:"work"` // elements, keys or pairs the call handled
}

// tracer keeps spans in memory and writes them as JSON when the run
// ends. A nil *tracer records nothing and just runs the timed calls.
type tracer struct {
	t0    time.Time
	path  string
	spans []span
	req   int
	rt    rtProbe
}

func newTracer(path string) *tracer {
	return &tracer{t0: time.Now(), path: path, rt: newRTProbe()}
}

// op opens the root span of end-to-end op name.
func (t *tracer) op(name string) int {
	if t == nil {
		return -1
	}
	t.req++
	return t.begin(name, -1)
}

// begin opens a span under parent (-1 for a root).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i, work int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.spans[i].Work = work
}

// timed records one call as a span under parent.
func (t *tracer) timed(name string, parent, work int, f func()) {
	i := t.begin(name, parent)
	f()
	t.end(i, work)
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, parent int, start, end time.Time, work int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Work: work})
	return len(t.spans) - 1
}

// layerSum is the summed duration, work and count of spans named name.
type layerSum struct {
	ns    float64
	work  float64
	count float64
}

func (t *tracer) sum(name string) layerSum {
	var s layerSum
	for _, sp := range t.spans {
		if sp.Name == name {
			s.ns += float64(sp.End - sp.Start)
			s.work += float64(sp.Work)
			s.count++
		}
	}
	return s
}

// perWork is the mean duration per unit of work, in ns.
func (t *tracer) perWork(name string) float64 {
	s := t.sum(name)
	if s.work == 0 {
		return 0
	}
	return s.ns / s.work
}

// meanMS is the mean span duration in ms.
func (t *tracer) meanMS(name string) float64 {
	s := t.sum(name)
	if s.count == 0 {
		return 0
	}
	return s.ns / s.count / 1e6
}

// selfMean is the mean self time of spans named name, in ns: each
// span's duration minus its children's.
func (t *tracer) selfMean(name string) float64 {
	child := make(map[int]int64)
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	var total float64
	var n int
	for i, sp := range t.spans {
		if sp.Name == name {
			total += float64(sp.End - sp.Start - child[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func (t *tracer) write() error {
	f, err := os.Create(t.path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans in %s\n", len(t.spans), t.path)
	return f.Close()
}

// rtProbe accumulates runtime/metrics deltas around timed calls.
type rtProbe struct {
	samples            []metrics.Sample
	allocs, bytes, ops float64
	gc0                uint32
	pause0             uint64
}

func newRTProbe() rtProbe {
	p := rtProbe{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gc0, p.pause0 = ms.NumGC, ms.PauseTotalNs
	return p
}

func (p *rtProbe) read() (objs, bytes uint64) {
	metrics.Read(p.samples)
	return p.samples[0].Value.Uint64(), p.samples[1].Value.Uint64()
}

// around runs f and adds its allocations to the probe.
func (t *tracer) around(f func()) {
	if t == nil {
		f()
		return
	}
	o0, b0 := t.rt.read()
	f()
	o1, b1 := t.rt.read()
	t.rt.allocs += float64(o1 - o0)
	t.rt.bytes += float64(b1 - b0)
	t.rt.ops++
}

// runtimeMetrics reports GC work since the tracer started and the mean
// allocations per timed op.
func (t *tracer) runtimeMetrics(vals map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["runtime.gc_cycles"] = float64(ms.NumGC - t.rt.gc0)
	vals["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-t.rt.pause0) / 1e6
	if t.rt.ops > 0 {
		vals["runtime.allocs_per_op"] = t.rt.allocs / t.rt.ops
		vals["runtime.alloc_bytes_per_op"] = t.rt.bytes / t.rt.ops
	}
}

// ---------------------------------------------------------------------
// /proc readers.

// resetPeakRSS restarts this process's VmHWM from its current resident
// set (Linux clear_refs value 5), so the peak covers only what follows.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// vmHWM returns a process's peak resident set in MiB ("self" for this
// one).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuSeconds returns a process's user+system CPU time, assuming the
// usual 100 clock ticks per second.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil
}

// finite reports whether every value is a finite number.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// sameBits reports whether two answer vectors are Float64bits-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
